// Per-endpoint SLO objectives and multi-window burn-rate tracking
// (OBSERVABILITY.md "SLOs and burn rates"). The tracker folds every
// guarded request into fixed 10-second buckets per endpoint, derives
// rolling bad-request fractions over a fast and a slow window, and
// normalises them by the objective's error budget — the burn rate. A
// fast-window burn above the threshold marks the server degraded:
// /healthz reports "status":"degraded" (load balancers may drain the
// node) while answers stay untouched. Everything here is observational.
package server

import (
	"net/http"
	"sync"
	"time"

	"topkdedup/internal/obs"
)

const (
	// sloStep is the bucket granularity of the burn-rate rings.
	sloStep = 10 * time.Second
	// sloFastWindow is the short burn-rate window — the trip wire for
	// /healthz degradation.
	sloFastWindow = 5 * time.Minute
	// sloSlowWindow is the long burn-rate window — context for telling a
	// blip from sustained burn.
	sloSlowWindow = time.Hour
	// sloFastBurn is the fast-window burn rate at or above which the
	// server reports degraded: the classic "exhausts a 30-day budget in 2
	// days" page threshold.
	sloFastBurn = 14.4
	// sloAvailability is every objective's good-request goal: the error
	// budget is 1−sloAvailability of all requests.
	sloAvailability = 0.999
	// sloQuantile is the quantile the latency target is stated at
	// (reporting only; burn tracking is per request).
	sloQuantile = 0.99
	// sloLatencyTarget is every objective's per-request latency
	// threshold: a slower request counts as bad even when it succeeds.
	sloLatencyTarget = time.Second
)

// sloBucket is one 10-second tally; idx is the absolute bucket index so
// a ring slot can tell a stale epoch from the current one.
type sloBucket struct {
	idx        int64
	total, bad int64
}

// sloTracker aggregates request outcomes into per-endpoint burn rates:
// one objective per guarded endpoint, each stated as p99 within target
// and 99.9% of requests good.
type sloTracker struct {
	// target is sloLatencyTarget and now is time.Now; tests in this
	// package replace them to trip or step the tracker.
	target time.Duration
	now    func() time.Time
	sink   obs.Sink

	mu sync.Mutex
	// series holds each guarded endpoint's ring of buckets covering the
	// slow window.
	series map[string][]sloBucket
}

func newSLOTracker(sink obs.Sink) *sloTracker {
	t := &sloTracker{target: sloLatencyTarget, now: time.Now, sink: sink, series: make(map[string][]sloBucket, len(latencyEndpoints))}
	for _, ep := range latencyEndpoints {
		t.series[ep] = make([]sloBucket, int(sloSlowWindow/sloStep)+1)
	}
	return t
}

// record folds one request outcome into its endpoint's ring. Endpoints
// without an objective are ignored; bad means 5xx, 429, or slower than
// the latency target.
func (t *sloTracker) record(endpoint string, status int, elapsed time.Duration) {
	t.mu.Lock()
	ser := t.series[endpoint]
	if ser == nil {
		t.mu.Unlock()
		return
	}
	bad := status >= 500 || status == http.StatusTooManyRequests || elapsed > t.target
	idx := t.now().UnixNano() / int64(sloStep)
	b := &ser[int(idx%int64(len(ser)))]
	if b.idx != idx {
		*b = sloBucket{idx: idx}
	}
	b.total++
	if bad {
		b.bad++
	}
	t.mu.Unlock()
	if bad {
		obs.Count(t.sink, "slo."+endpoint+".bad", 1)
	}
}

// windowLocked sums a series' buckets over the trailing window. Callers
// hold t.mu.
func (t *sloTracker) windowLocked(ser []sloBucket, window time.Duration) (total, bad int64) {
	now := t.now().UnixNano() / int64(sloStep)
	span := int64(window / sloStep)
	for _, b := range ser {
		if b.idx > now-span && b.idx <= now {
			total += b.total
			bad += b.bad
		}
	}
	return total, bad
}

// burn converts a window tally into a burn rate: the bad-request
// fraction divided by the error budget. 1.0 means the budget is being
// consumed exactly at the sustainable rate; above that it runs out
// early.
func burn(total, bad int64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - sloAvailability)
}

// SLOStatus is one objective's entry in the GET /slo report.
type SLOStatus struct {
	// Endpoint names the guarded endpoint.
	Endpoint string `json:"endpoint"`
	// LatencyTargetSeconds is the per-request latency threshold.
	LatencyTargetSeconds float64 `json:"latency_target_seconds"`
	// LatencyQuantile is the quantile the target is stated at.
	LatencyQuantile float64 `json:"latency_quantile"`
	// ObservedLatencySeconds estimates that quantile over the endpoint's
	// full latency histogram (octave accuracy, see obs.Dist.Quantile).
	ObservedLatencySeconds float64 `json:"observed_latency_seconds"`
	// Availability is the good-request objective.
	Availability float64 `json:"availability"`
	// SlowWindowTotal and SlowWindowBad tally the slow window.
	SlowWindowTotal int64 `json:"slow_window_total"`
	// SlowWindowBad is the bad-request count of the slow window.
	SlowWindowBad int64 `json:"slow_window_bad"`
	// FastBurnRate is the fast-window burn rate.
	FastBurnRate float64 `json:"fast_burn_rate"`
	// SlowBurnRate is the slow-window burn rate.
	SlowBurnRate float64 `json:"slow_burn_rate"`
	// Tripped reports whether this objective's fast burn is at or above
	// the threshold (any tripped objective degrades /healthz).
	Tripped bool `json:"tripped"`
}

// SLOResponse is the GET /slo body.
type SLOResponse struct {
	// FastWindowSeconds is the fast burn window.
	FastWindowSeconds float64 `json:"fast_window_seconds"`
	// SlowWindowSeconds is the slow burn window.
	SlowWindowSeconds float64 `json:"slow_window_seconds"`
	// FastBurnThreshold is the degradation trip point.
	FastBurnThreshold float64 `json:"fast_burn_threshold"`
	// Degraded reports whether any objective is tripped — mirrored by
	// /healthz's status field and the slo.degraded gauge.
	Degraded bool `json:"degraded"`
	// Objectives lists every tracked objective's current state.
	Objectives []SLOStatus `json:"objectives"`
}

// report builds the /slo body; snap supplies the observed latency
// quantiles.
func (t *sloTracker) report(snap *obs.Snapshot) SLOResponse {
	resp := SLOResponse{
		FastWindowSeconds: sloFastWindow.Seconds(),
		SlowWindowSeconds: sloSlowWindow.Seconds(),
		FastBurnThreshold: sloFastBurn,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ep := range latencyEndpoints {
		ser := t.series[ep]
		fTotal, fBad := t.windowLocked(ser, sloFastWindow)
		sTotal, sBad := t.windowLocked(ser, sloSlowWindow)
		st := SLOStatus{
			Endpoint:             ep,
			LatencyTargetSeconds: t.target.Seconds(),
			LatencyQuantile:      sloQuantile,
			Availability:         sloAvailability,
			SlowWindowTotal:      sTotal,
			SlowWindowBad:        sBad,
			FastBurnRate:         burn(fTotal, fBad),
			SlowBurnRate:         burn(sTotal, sBad),
		}
		st.Tripped = st.FastBurnRate >= sloFastBurn
		if d, ok := snap.Observations["server.http."+ep+".seconds"]; ok {
			st.ObservedLatencySeconds = d.Quantile(sloQuantile)
		}
		if st.Tripped {
			resp.Degraded = true
		}
		resp.Objectives = append(resp.Objectives, st)
	}
	return resp
}

// degraded reports whether any objective's fast burn is tripped.
func (t *sloTracker) degraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ser := range t.series {
		if burn(t.windowLocked(ser, sloFastWindow)) >= sloFastBurn {
			return true
		}
	}
	return false
}

// refreshGauges publishes the slo.* burn-rate gauges — called at scrape
// time so the exported numbers are current, not as-of the last request.
func (t *sloTracker) refreshGauges() {
	type rates struct {
		ep         string
		fast, slow float64
	}
	var all []rates
	degraded := false
	t.mu.Lock()
	for _, ep := range latencyEndpoints {
		ser := t.series[ep]
		r := rates{ep: ep, fast: burn(t.windowLocked(ser, sloFastWindow)), slow: burn(t.windowLocked(ser, sloSlowWindow))}
		if r.fast >= sloFastBurn {
			degraded = true
		}
		all = append(all, r)
	}
	t.mu.Unlock()
	for _, r := range all {
		obs.Gauge(t.sink, "slo."+r.ep+".burn_rate_fast", r.fast)
		obs.Gauge(t.sink, "slo."+r.ep+".burn_rate_slow", r.slow)
	}
	v := 0.0
	if degraded {
		v = 1
	}
	obs.Gauge(t.sink, "slo.degraded", v)
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed, use GET")
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	s.slo.refreshGauges()
	writeJSON(w, http.StatusOK, s.slo.report(s.metrics.Snapshot()))
}
