package topk

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"topkdedup/internal/experiments"
	"topkdedup/internal/obs"
	"topkdedup/internal/stream"
)

// renderSnapshot writes a collector snapshot canonically: every name
// with its kind and count, and every value except the wall times
// (`*.seconds`), of which only the count is host-independent. Floats
// render as their IEEE-754 bits.
func renderSnapshot(b *strings.Builder, s *obs.Snapshot) {
	for _, n := range s.Names() {
		if v, ok := s.Counters[n]; ok {
			fmt.Fprintf(b, "counter %s %d\n", n, v)
		}
		if v, ok := s.Gauges[n]; ok {
			fmt.Fprintf(b, "gauge %s %016x\n", n, math.Float64bits(v))
		}
		if d, ok := s.Observations[n]; ok {
			if strings.HasSuffix(n, ".seconds") {
				fmt.Fprintf(b, "observation %s count=%d\n", n, d.Count)
				continue
			}
			fmt.Fprintf(b, "observation %s count=%d sum=%016x min=%016x max=%016x buckets=%v\n", n, d.Count,
				math.Float64bits(d.Sum), math.Float64bits(d.Min), math.Float64bits(d.Max), d.Buckets)
		}
	}
}

// renderSpanTree writes a trace's span names and parent links: each
// span indented under its parent, siblings in start order.
func renderSpanTree(b *strings.Builder, spans []obs.SpanRecord) {
	byParent := map[obs.SpanID][]obs.SpanRecord{}
	ids := map[obs.SpanID]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	var roots []obs.SpanRecord
	for _, s := range spans {
		if !ids[s.Parent] {
			roots = append(roots, s)
			continue
		}
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var walk func(s obs.SpanRecord, depth int)
	walk = func(s obs.SpanRecord, depth int) {
		fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), s.Name)
		kids := byParent[s.ID]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// checkGolden compares the hash of a rendering with want and prints the
// rendering when they differ.
func checkGolden(t *testing.T, what, rendered, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(rendered))
	if got := fmt.Sprintf("%x", sum[:8]); got != want {
		t.Errorf("%s hash = %s, want %s; rendering:\n%s", what, got, want, rendered)
	}
}

// TestObservabilityGolden pins what the pipeline reports, not what it
// answers, on the fixed-seed citation dataset of TestExactCountsCitations
// with its trained scorer: the metric emissions of one batch
// Engine.TopK(10, 3), one served query (a snapshot freeze,
// Snapshot.TopKCtx and Engine.TopKFromCtx) and one Engine.Dedup — every
// name, kind and count, and every value but the wall times; one query's
// EXPLAIN with its timings and trace ID stripped; and the span names and
// parent links of one traced query. A change to how phases are timed or
// reported must leave all three as they are.
func TestObservabilityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a scorer")
	}
	dd, err := experiments.CitationSetup(3000, true)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	levels := dd.Domain.Levels

	t.Run("emission", func(t *testing.T) {
		var b strings.Builder
		batch := obs.NewCollector()
		if _, err := New(dd.Data, levels, dd.Model, Config{Workers: workers, Metrics: batch}).TopK(10, 3); err != nil {
			t.Fatal(err)
		}
		b.WriteString("# batch\n")
		renderSnapshot(&b, batch.Snapshot())

		inc, err := stream.New(dd.Data.Name, dd.Data.Schema, levels)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]string, len(dd.Data.Schema))
		for _, r := range dd.Data.Recs {
			for fi, f := range dd.Data.Schema {
				values[fi] = r.Fields[f]
			}
			inc.Add(r.Weight, r.Truth, values...)
		}
		served := obs.NewCollector()
		inc.SetMetrics(served)
		snap := inc.Snapshot()
		ctx := context.Background()
		pd, err := snap.TopKCtx(ctx, 10, workers, served)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(snap.Dataset(), levels, dd.Model, Config{Workers: workers, Metrics: served}).TopKFromCtx(ctx, pd, 10, 3); err != nil {
			t.Fatal(err)
		}
		b.WriteString("# served\n")
		renderSnapshot(&b, served.Snapshot())

		dedup := obs.NewCollector()
		if _, err := New(dd.Data, levels, dd.Model, Config{Workers: workers, Metrics: dedup}).Dedup(); err != nil {
			t.Fatal(err)
		}
		b.WriteString("# dedup\n")
		renderSnapshot(&b, dedup.Snapshot())
		checkGolden(t, "emission", b.String(), "a9f2e09cf4b7d92c")
	})

	t.Run("explain", func(t *testing.T) {
		res, err := New(dd.Data, levels, dd.Model, Config{Workers: workers, Explain: true}).TopK(10, 3)
		if err != nil {
			t.Fatal(err)
		}
		res.Explain.StripTimings()
		res.Explain.Trace = ""
		enc, err := json.MarshalIndent(res.Explain, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "EXPLAIN", string(enc), "74786b5e3e461060")
	})

	t.Run("spantree", func(t *testing.T) {
		tracer := NewTracer(1)
		if _, err := New(dd.Data, levels, dd.Model, Config{Workers: workers, Tracer: tracer}).TopK(10, 3); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		renderSpanTree(&b, tracer.Spans(tracer.Traces()[0].ID))
		// The final scoring's parallel.for files under engine.final.score,
		// the phase that runs it.
		checkGolden(t, "span tree", b.String(), "be29199302e0977b")
	})
}
