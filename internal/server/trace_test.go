package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"topkdedup/internal/obs"
)

// traceRecords builds a deterministic record set spreading entities over
// eight first-letter canopies, so the prune passes have groups to kill.
func traceRecords(n int) []IngestRecord {
	recs := make([]IngestRecord, n)
	for i := range recs {
		e := i % (n / 3)
		recs[i] = IngestRecord{
			Weight: 1 + 0.001*float64(i%7),
			Truth:  fmt.Sprintf("E%03d", e),
			Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%8, e, i%2)},
		}
	}
	return recs
}

// TestDebugTracesEndpoint covers the trace endpoint on a server pruning
// with a worker pool: one /topk?explain=1 query yields one trace whose
// spans GET /debug/traces?trace=<id> returns and whose Chrome export
// decodes as a trace_event document; the EXPLAIN report names that trace
// and its per-round pruned counts sum to what the core.prune.pass.pruned
// metric saw; then the list shape, the unknown- and malformed-ID
// responses, and the 404 when tracing is disabled by TraceLimit < 0.
func TestDebugTracesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Engine.Workers = 4 })
	ingestBatch(t, ts, traceRecords(96))

	resp, body := get(t, ts, "/topk?k=3&r=2&explain=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: status %d: %s", resp.StatusCode, body)
	}
	var tr TopKResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode topk response: %v: %s", err, body)
	}
	if tr.TraceID == "" {
		t.Fatal("response carries no trace_id")
	}
	ex := tr.Result.Explain
	if ex == nil {
		t.Fatal("explain=1 returned no EXPLAIN report")
	}
	if ex.Trace != tr.TraceID {
		t.Errorf("EXPLAIN trace %q != response trace_id %q", ex.Trace, tr.TraceID)
	}

	resp, body = get(t, ts, "/debug/traces?trace="+tr.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: status %d: %s", resp.StatusCode, body)
	}
	var full TraceResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatalf("decode trace: %v: %s", err, body)
	}
	spanNames := map[string]bool{}
	stage0Pruned := 0
	for _, s := range full.Spans {
		spanNames[s.Name] = true
		if s.Name == "core.prune.stage0" {
			stage0Pruned += int(s.AttrNum("pruned"))
			if s.AttrNum("rounds") < 2 {
				t.Errorf("core.prune.stage0 rounds = %v, want one round of each cascade at least", s.AttrNum("rounds"))
			}
		}
	}
	for _, want := range []string{"server.topk", "core.level", "core.prune.stage0", "core.prune.pass"} {
		if !spanNames[want] {
			t.Errorf("trace is missing a %q span", want)
		}
	}
	explainStage0 := 0
	for _, l := range ex.Levels {
		explainStage0 += l.Stage0Pruned
	}
	if stage0Pruned != explainStage0 {
		t.Errorf("core.prune.stage0 spans pruned %d, EXPLAIN's levels %d", stage0Pruned, explainStage0)
	}

	resp, body = get(t, ts, "/debug/traces?trace="+tr.TraceID+"&format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: status %d: %s", resp.StatusCode, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export did not decode: %v: %s", err, body)
	}
	if len(chrome.TraceEvents) != len(full.Spans) {
		t.Errorf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(full.Spans))
	}

	// EXPLAIN's pruning rounds aggregate exactly what the metric stream
	// saw (this was the only query the server answered).
	var explainPruned int64
	for _, l := range ex.Levels {
		for _, rd := range l.Rounds {
			explainPruned += int64(rd.Pruned)
		}
	}
	dist, ok := srv.Metrics().Snapshot().Observations["core.prune.pass.pruned"]
	if !ok {
		t.Fatal("collector has no core.prune.pass.pruned observations")
	}
	if int64(dist.Sum) != explainPruned {
		t.Errorf("EXPLAIN pruned total %d != metric sum %v", explainPruned, dist.Sum)
	}

	resp, body = get(t, ts, "/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: status %d: %s", resp.StatusCode, body)
	}
	var list TraceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("no traces listed after a query")
	}
	if list.Traces[0].Name != "server.topk" {
		t.Errorf("latest trace name = %q, want server.topk", list.Traces[0].Name)
	}

	if resp, _ := get(t, ts, "/debug/traces?trace=zzzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed trace id: status %d, want 400", resp.StatusCode)
	}
	unknown := "00000000000000000000000000000001"
	resp, body = get(t, ts, "/debug/traces?trace="+unknown)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unknown trace id: status %d: %s", resp.StatusCode, body)
	}

	_, off := newTestServer(t, func(c *Config) { c.TraceLimit = -1 })
	if resp, _ := get(t, off, "/debug/traces"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("tracing disabled: status %d, want 404", resp.StatusCode)
	}
	// Queries still answer normally with tracing off, without a trace id.
	ingestBatch(t, off, names("alpha.v0", "beta.v0"))
	resp, body = get(t, off, "/topk?k=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk with tracing off: status %d: %s", resp.StatusCode, body)
	}
	var untraced TopKResponse
	if err := json.Unmarshal(body, &untraced); err != nil {
		t.Fatal(err)
	}
	if untraced.TraceID != "" {
		t.Errorf("tracing disabled but response carries trace_id %q", untraced.TraceID)
	}
}

// TestRankThresholdTraced: a /rank?t= query is one server.rank trace
// whose pruning runs under a stream.threshold span — core.level beneath
// it, prune phases beneath those — and, with M := t, no level runs the
// §4.2 bound scan.
func TestRankThresholdTraced(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Engine.Workers = 2 })
	ingestBatch(t, ts, traceRecords(96))
	if resp, body := get(t, ts, "/rank?t=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d: %s", resp.StatusCode, body)
	}
	_, body := get(t, ts, "/debug/traces")
	var list TraceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 || list.Traces[0].Name != "server.rank" {
		t.Fatalf("latest trace is not server.rank: %+v", list.Traces)
	}
	_, body = get(t, ts, "/debug/traces?trace="+list.Traces[0].ID.String())
	var full TraceResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	name := map[obs.SpanID]string{}
	for _, s := range full.Spans {
		name[s.ID] = s.Name
	}
	levels, prunes := 0, 0
	for _, s := range full.Spans {
		switch s.Name {
		case "stream.threshold":
			if name[s.Parent] != "server.rank" {
				t.Errorf("stream.threshold under %q, want server.rank", name[s.Parent])
			}
		case "core.level":
			levels++
			if name[s.Parent] != "stream.threshold" {
				t.Errorf("core.level under %q, want stream.threshold", name[s.Parent])
			}
		case "core.prune":
			prunes++
		case "core.bound":
			t.Errorf("a thresholded query ran the bound scan: %+v", s)
		}
	}
	if levels != len(toyLevels()) || prunes == 0 {
		t.Errorf("trace has %d core.level and %d core.prune spans, want %d levels that prune", levels, prunes, len(toyLevels()))
	}
}
