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

// sloStep is the bucket granularity of the burn-rate rings.
const sloStep = 10 * time.Second

// SLOObjective states one endpoint's service-level objective: requests
// slower than LatencyTarget, rejected for capacity (429), or failed
// server-side (5xx) consume the error budget 1−Availability.
type SLOObjective struct {
	// Endpoint is the guarded endpoint name ("topk", "rank", "ingest",
	// or "refresh").
	Endpoint string
	// LatencyTarget is the per-request latency threshold; a slower
	// request counts as bad even when it succeeds.
	LatencyTarget time.Duration
	// LatencyQuantile is the quantile the target is stated at (reporting
	// only; burn tracking is per-request). Typically 0.99.
	LatencyQuantile float64
	// Availability is the good-request objective in (0, 1), e.g. 0.999:
	// the error budget is 1−Availability of all requests.
	Availability float64
}

// DefaultSLOObjectives returns the built-in objectives for the four
// serving endpoints at the given latency target (0 selects 1s): p99
// within the target, 99.9% of requests good.
func DefaultSLOObjectives(latencyTarget time.Duration) []SLOObjective {
	if latencyTarget <= 0 {
		latencyTarget = time.Second
	}
	var objs []SLOObjective
	for _, ep := range latencyEndpoints {
		objs = append(objs, SLOObjective{
			Endpoint: ep, LatencyTarget: latencyTarget, LatencyQuantile: 0.99, Availability: 0.999,
		})
	}
	return objs
}

// SLOConfig configures the tracker (Config.SLO). The zero value enables
// the defaults.
type SLOConfig struct {
	// Disable turns SLO tracking off entirely: no slo.* metrics, GET
	// /slo answers 404, /healthz never degrades.
	Disable bool
	// Objectives lists the tracked objectives; nil selects
	// DefaultSLOObjectives(LatencyTarget).
	Objectives []SLOObjective
	// LatencyTarget overrides the default objectives' latency threshold
	// when Objectives is nil (the topkd -slo-target flag). 0 selects 1s.
	LatencyTarget time.Duration
	// FastWindow is the short burn-rate window (default 5m) — the
	// trip wire for /healthz degradation.
	FastWindow time.Duration
	// SlowWindow is the long burn-rate window (default 1h) — context for
	// distinguishing a blip from sustained burn.
	SlowWindow time.Duration
	// FastBurnThreshold is the fast-window burn rate at or above which
	// the server reports degraded. Default 14.4 (the classic "exhausts a
	// 30-day budget in 2 days" page threshold).
	FastBurnThreshold float64

	// now, when non-nil (tests only), replaces the tracker's clock.
	now func() time.Time
}

func (c *SLOConfig) withDefaults() {
	if len(c.Objectives) == 0 {
		c.Objectives = DefaultSLOObjectives(c.LatencyTarget)
	}
	for i := range c.Objectives {
		if c.Objectives[i].LatencyTarget <= 0 {
			c.Objectives[i].LatencyTarget = time.Second
		}
		if !(c.Objectives[i].LatencyQuantile > 0 && c.Objectives[i].LatencyQuantile <= 1) {
			c.Objectives[i].LatencyQuantile = 0.99
		}
		if !(c.Objectives[i].Availability > 0 && c.Objectives[i].Availability < 1) {
			c.Objectives[i].Availability = 0.999
		}
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = time.Hour
	}
	if c.FastBurnThreshold <= 0 {
		c.FastBurnThreshold = 14.4
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// sloBucket is one 10-second tally; idx is the absolute bucket index so
// a ring slot can tell a stale epoch from the current one.
type sloBucket struct {
	idx        int64
	total, bad int64
}

// sloSeries is one endpoint's ring of buckets covering the slow window.
type sloSeries struct {
	obj     SLOObjective
	buckets []sloBucket
}

// sloTracker aggregates request outcomes into per-endpoint burn rates.
// A nil tracker is inert: every method no-ops.
type sloTracker struct {
	cfg  SLOConfig
	sink obs.Sink

	mu     sync.Mutex
	series map[string]*sloSeries
}

func newSLOTracker(cfg SLOConfig, sink obs.Sink) *sloTracker {
	cfg.withDefaults()
	n := int(cfg.SlowWindow/sloStep) + 1
	t := &sloTracker{cfg: cfg, sink: sink, series: make(map[string]*sloSeries, len(cfg.Objectives))}
	for _, obj := range cfg.Objectives {
		t.series[obj.Endpoint] = &sloSeries{obj: obj, buckets: make([]sloBucket, n)}
	}
	return t
}

// record folds one request outcome into its endpoint's ring. Endpoints
// without an objective are ignored; bad means 5xx, 429, or slower than
// the latency target.
func (t *sloTracker) record(endpoint string, status int, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ser := t.series[endpoint]
	if ser == nil {
		t.mu.Unlock()
		return
	}
	bad := status >= 500 || status == http.StatusTooManyRequests || elapsed > ser.obj.LatencyTarget
	idx := t.cfg.now().UnixNano() / int64(sloStep)
	b := &ser.buckets[int(idx%int64(len(ser.buckets)))]
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
func (t *sloTracker) windowLocked(ser *sloSeries, window time.Duration) (total, bad int64) {
	now := t.cfg.now().UnixNano() / int64(sloStep)
	span := int64(window / sloStep)
	if span < 1 {
		span = 1
	}
	for i := range ser.buckets {
		b := ser.buckets[i]
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
func burn(total, bad int64, availability float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - availability)
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
		FastWindowSeconds: t.cfg.FastWindow.Seconds(),
		SlowWindowSeconds: t.cfg.SlowWindow.Seconds(),
		FastBurnThreshold: t.cfg.FastBurnThreshold,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, obj := range t.cfg.Objectives {
		ser := t.series[obj.Endpoint]
		fTotal, fBad := t.windowLocked(ser, t.cfg.FastWindow)
		sTotal, sBad := t.windowLocked(ser, t.cfg.SlowWindow)
		st := SLOStatus{
			Endpoint:             obj.Endpoint,
			LatencyTargetSeconds: obj.LatencyTarget.Seconds(),
			LatencyQuantile:      obj.LatencyQuantile,
			Availability:         obj.Availability,
			SlowWindowTotal:      sTotal,
			SlowWindowBad:        sBad,
			FastBurnRate:         burn(fTotal, fBad, obj.Availability),
			SlowBurnRate:         burn(sTotal, sBad, obj.Availability),
		}
		st.Tripped = st.FastBurnRate >= t.cfg.FastBurnThreshold
		if d, ok := snap.Observations["server.http."+obj.Endpoint+".seconds"]; ok {
			st.ObservedLatencySeconds = d.Quantile(obj.LatencyQuantile)
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
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, obj := range t.cfg.Objectives {
		total, bad := t.windowLocked(t.series[obj.Endpoint], t.cfg.FastWindow)
		if burn(total, bad, obj.Availability) >= t.cfg.FastBurnThreshold {
			return true
		}
	}
	return false
}

// refreshGauges publishes the slo.* burn-rate gauges — called at scrape
// time so the exported numbers are current, not as-of the last request.
func (t *sloTracker) refreshGauges() {
	if t == nil {
		return
	}
	type rates struct {
		ep         string
		fast, slow float64
	}
	var all []rates
	degraded := false
	t.mu.Lock()
	for _, obj := range t.cfg.Objectives {
		ser := t.series[obj.Endpoint]
		fTotal, fBad := t.windowLocked(ser, t.cfg.FastWindow)
		sTotal, sBad := t.windowLocked(ser, t.cfg.SlowWindow)
		r := rates{ep: obj.Endpoint, fast: burn(fTotal, fBad, obj.Availability), slow: burn(sTotal, sBad, obj.Availability)}
		if r.fast >= t.cfg.FastBurnThreshold {
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
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "slo tracking disabled")
		return
	}
	s.slo.refreshGauges()
	writeJSON(w, http.StatusOK, s.slo.report(s.metrics.Snapshot()))
}
