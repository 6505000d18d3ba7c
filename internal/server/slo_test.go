package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"topkdedup/internal/obs"
)

// TestSLOTrackerBurnRates drives the tracker with a fake clock through
// the burn-rate arithmetic at the fixed windows (5m fast, 1h slow), the
// 99.9% availability goal and the 14.4 trip point: good traffic burns
// nothing, concentrated failures trip the fast window, and both windows
// forget on schedule.
func TestSLOTrackerBurnRates(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	tr := newSLOTracker(SLOConfig{now: func() time.Time { return now }}, nil)
	topkStatus := func(rep SLOResponse) SLOStatus {
		for _, st := range rep.Objectives {
			if st.Endpoint == "topk" {
				return st
			}
		}
		t.Fatalf("no topk objective in %+v", rep)
		return SLOStatus{}
	}

	for i := 0; i < 1000; i++ {
		tr.record("topk", http.StatusOK, time.Millisecond)
	}
	tr.record("ignored", http.StatusInternalServerError, 0) // no objective: dropped
	if tr.degraded() {
		t.Fatal("all-good traffic reported degraded")
	}
	rep := tr.report(&obs.Snapshot{})
	if rep.FastWindowSeconds != 300 || rep.SlowWindowSeconds != 3600 || rep.FastBurnThreshold != 14.4 {
		t.Fatalf("windows and threshold: %+v", rep)
	}
	if len(rep.Objectives) != len(latencyEndpoints) {
		t.Fatalf("%d objectives, want one per endpoint (%d)", len(rep.Objectives), len(latencyEndpoints))
	}
	if st := topkStatus(rep); st.FastBurnRate != 0 || st.SlowWindowTotal != 1000 || st.SlowWindowBad != 0 ||
		st.LatencyTargetSeconds != 1 || st.LatencyQuantile != 0.99 || st.Availability != 0.999 {
		t.Fatalf("good traffic: %+v", st)
	}

	// 10 bad among 1010 total in the fast window: burn = (10/1010)/0.001
	// ≈ 9.9, under the threshold. Bad means 5xx, 429, or slow.
	for i := 0; i < 8; i++ {
		tr.record("topk", http.StatusInternalServerError, 0)
	}
	tr.record("topk", http.StatusTooManyRequests, 0)
	tr.record("topk", http.StatusOK, 2*time.Second) // slow success is bad too
	if tr.degraded() {
		t.Fatal("9.9x budget burn reported degraded")
	}
	// 10 more: burn = (20/1020)/0.001 ≈ 19.6, past 14.4.
	for i := 0; i < 10; i++ {
		tr.record("topk", http.StatusInternalServerError, 0)
	}
	if !tr.degraded() {
		t.Fatal("19.6x budget burn not reported degraded")
	}
	rep = tr.report(&obs.Snapshot{})
	if st := topkStatus(rep); !st.Tripped || st.FastBurnRate < 14.4 || st.SlowWindowBad != 20 {
		t.Fatalf("burning traffic: %+v", st)
	}
	if !rep.Degraded {
		t.Fatal("report.Degraded false while an objective is tripped")
	}

	// Six minutes later the fast window has forgotten the burst but the
	// slow window still remembers it.
	now = now.Add(6 * time.Minute)
	if tr.degraded() {
		t.Fatal("degradation outlived the fast window")
	}
	if st := topkStatus(tr.report(&obs.Snapshot{})); st.FastBurnRate != 0 || st.SlowWindowBad != 20 {
		t.Fatalf("after fast window: %+v", st)
	}

	// Past the slow window everything is forgotten.
	now = now.Add(time.Hour)
	if st := topkStatus(tr.report(&obs.Snapshot{})); st.SlowWindowTotal != 0 || st.SlowBurnRate != 0 {
		t.Fatalf("after slow window: %+v", st)
	}
}

// TestSLODegradedHealthz wires the tracker through real HTTP: with an
// unmeetable latency target every request is bad, so /healthz degrades,
// /slo reports the tripped objective, and the slo.* gauges publish —
// while answers keep flowing untouched.
func TestSLODegradedHealthz(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SLO = SLOConfig{LatencyTarget: time.Nanosecond}
	})
	ingestBatch(t, ts, names("alice", "alice", "bob"))
	for i := 0; i < 5; i++ {
		resp, body := get(t, ts, "/topk?k=2")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded serving must still answer: %d: %s", resp.StatusCode, body)
		}
	}

	_, body := get(t, ts, "/healthz")
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Status != "degraded" {
		t.Fatalf("healthz under burn: %+v", h)
	}
	if h.Version == "" || h.GoVersion == "" || h.UptimeSeconds < 0 {
		t.Fatalf("healthz build info missing: %+v", h)
	}

	resp, body := get(t, ts, "/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo: status %d: %s", resp.StatusCode, body)
	}
	var rep SLOResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatalf("/slo not degraded: %s", body)
	}
	tripped := false
	for _, st := range rep.Objectives {
		if st.Endpoint == "topk" && st.Tripped && st.FastBurnRate >= rep.FastBurnThreshold {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("topk objective not tripped: %s", body)
	}
	// /slo refreshed the gauges on its way out.
	if v, ok := srv.Metrics().GaugeValue("slo.degraded"); !ok || v != 1 {
		t.Fatalf("slo.degraded gauge = %v (set=%v), want 1", v, ok)
	}
	if v, _ := srv.Metrics().GaugeValue("slo.topk.burn_rate_fast"); v < sloFastBurn {
		t.Fatal("slo.topk.burn_rate_fast gauge below threshold despite trip")
	}
	if srv.Metrics().CounterValue("slo.topk.bad") == 0 {
		t.Fatal("slo.topk.bad counter not incremented")
	}
}

// TestSLORecovery checks the happy path end to end: default objectives,
// fast requests, nothing trips.
func TestSLORecovery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("a", "b", "c"))
	for i := 0; i < 5; i++ {
		get(t, ts, "/topk?k=1")
	}
	_, body := get(t, ts, "/healthz")
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthy server status %q", h.Status)
	}
	_, body = get(t, ts, "/slo")
	var rep SLOResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.Objectives) != len(latencyEndpoints) {
		t.Fatalf("healthy /slo: %s", body)
	}
}
