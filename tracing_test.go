package topk

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"topkdedup/internal/obs"
)

// TestTracerUntracedNoAllocs is the zero-cost-when-off guard the tracer
// design promises (see the trace model in OBSERVABILITY.md): on an
// untraced context, starting a child span, attaching attributes and
// events, and ending it must allocate nothing at all — the pipeline
// pays one context Value lookup per phase and no more.
func TestTracerUntracedNoAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := obs.StartChild(ctx, "core.collapse")
		sp.Attr("evals", 1)
		sp.AttrStr("phase", "collapse")
		sp.Event("bound.block")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Errorf("StartChild on untraced context: %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if obs.SpanFromContext(ctx) != nil {
			t.Fatal("background context is traced")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced context inspection: %.1f allocs/op, want 0", allocs)
	}
}

// stripPruningTimes zeroes the wall-clock fields of per-level pruning
// stats so they compare across runs (same helper shape as the parallel
// determinism tests).
func stripPruningTimes(stats []LevelStats) {
	for i := range stats {
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
	}
}

// TestTracingDeterminism is the observational-only guarantee of the
// tracing and EXPLAIN layers: with Config.Tracer and Config.Explain
// both on, the query's answers and pruning stats are identical to an
// untraced run at every Workers count, and the EXPLAIN report itself
// (timings stripped) is identical across worker counts.
func TestTracingDeterminism(t *testing.T) {
	d := toyData(31, 30, 8)
	const k, r = 5, 3
	ref, err := New(d, toyLevels(), oracleScorer(), Config{}).TopK(k, r)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Explain != nil {
		t.Fatal("untraced reference run produced an EXPLAIN report")
	}
	var refExplain string
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, Tracer: NewTracer(4), Explain: true}
		got, err := New(d, toyLevels(), oracleScorer(), cfg).TopK(k, r)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Answers, ref.Answers) {
			t.Errorf("workers=%d: traced answers differ from untraced reference", workers)
		}
		if got.Survivors != ref.Survivors || got.Exact != ref.Exact {
			t.Errorf("workers=%d: survivors/exact (%d,%v) != reference (%d,%v)",
				workers, got.Survivors, got.Exact, ref.Survivors, ref.Exact)
		}
		g := append([]LevelStats(nil), got.Pruning...)
		w := append([]LevelStats(nil), ref.Pruning...)
		stripPruningTimes(g)
		stripPruningTimes(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("workers=%d: traced pruning stats differ from untraced reference", workers)
		}
		ex := got.Explain
		if ex == nil {
			t.Fatalf("workers=%d: no EXPLAIN report", workers)
		}
		if ex.Trace == "" || len(ex.Levels) == 0 || ex.SpanCount == 0 {
			t.Fatalf("workers=%d: degenerate EXPLAIN %+v", workers, ex)
		}
		if last := ex.Levels[len(ex.Levels)-1]; last.Survivors != got.Survivors {
			t.Errorf("workers=%d: EXPLAIN survivors %d != result survivors %d",
				workers, last.Survivors, got.Survivors)
		}
		ex.StripTimings()
		// The trace ID is random per query; blank it before comparing.
		ex.Trace = ""
		enc, err := json.Marshal(ex)
		if err != nil {
			t.Fatal(err)
		}
		if refExplain == "" {
			refExplain = string(enc)
		} else if string(enc) != refExplain {
			t.Errorf("workers=%d: EXPLAIN differs across worker counts\n got: %s\nwant: %s",
				workers, enc, refExplain)
		}
	}
}

// TestExplainWithoutTracer covers the standalone EXPLAIN path: with no
// Tracer configured, Config.Explain alone must still produce a report
// through the ephemeral single-trace recorder, without changing the
// answers.
func TestExplainWithoutTracer(t *testing.T) {
	d := toyData(33, 20, 6)
	ref, err := New(d, toyLevels(), oracleScorer(), Config{}).TopK(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(d, toyLevels(), oracleScorer(), Config{Explain: true}).TopK(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Explain == nil {
		t.Fatal("Explain-only config produced no report")
	}
	if got.Explain.Name != "engine.topk" {
		t.Errorf("EXPLAIN root = %q, want engine.topk", got.Explain.Name)
	}
	if !reflect.DeepEqual(got.Answers, ref.Answers) {
		t.Error("Explain-only run changed the answers")
	}
}

// TestTracerRecordsQueryTrace is the happy-path retention check: a
// traced query leaves exactly one readable trace in the configured
// recorder, rooted at engine.topk with the per-level pipeline spans
// beneath it.
func TestTracerRecordsQueryTrace(t *testing.T) {
	d := toyData(35, 20, 6)
	tracer := NewTracer(2)
	if _, err := New(d, toyLevels(), oracleScorer(), Config{Tracer: tracer}).TopK(3, 2); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	if traces[0].Name != "engine.topk" {
		t.Errorf("trace name = %q, want engine.topk", traces[0].Name)
	}
	spans := tracer.Spans(traces[0].ID)
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, want := range []string{"engine.topk", "core.level", "core.collapse", "core.bound", "core.prune"} {
		if !seen[want] {
			t.Errorf("trace is missing a %q span (have %v)", want, seen)
		}
	}
}
