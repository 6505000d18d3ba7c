package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDTextRoundTrip(t *testing.T) {
	var id TraceID
	for i := range id {
		id[i] = byte(i*7 + 1)
	}
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != 32 {
		t.Fatalf("trace id text = %q, want 32 hex digits", text)
	}
	var back TraceID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip: got %s, want %s", back, id)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 32), strings.Repeat("a", 33)} {
		var x TraceID
		if err := x.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q): want error", bad)
		}
	}
}

func TestSpanIDTextRoundTrip(t *testing.T) {
	// A value above 2^53 must survive the text round trip exactly — the
	// string form exists precisely because float64 JSON would not.
	id := SpanID(1<<60 + 12345)
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != 16 {
		t.Fatalf("span id text = %q, want 16 hex digits", text)
	}
	var back SpanID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip: got %d, want %d", back, id)
	}
	var x SpanID
	if err := x.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText(short): want error")
	}
}

func TestRecorderSpanTree(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := rec.Start(context.Background(), nil, "engine.topk")
	root.Attr("k", 10)
	ctx2, child := Start(ctx, nil, "core.level")
	child.Attr("level", 1)
	child.Event("bound.block", Num("scanned", 32), Num("m", 7.5))
	_, grand := Start(ctx2, nil, "core.prune.pass")
	grand.End()
	child.End()
	root.End()

	sums := rec.Traces()
	if len(sums) != 1 {
		t.Fatalf("Traces: got %d, want 1", len(sums))
	}
	if sums[0].Name != "engine.topk" || sums[0].Spans != 3 || sums[0].Dropped != 0 {
		t.Fatalf("summary = %+v", sums[0])
	}
	spans := rec.Spans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("Spans: got %d, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["engine.topk"].Parent != 0 {
		t.Error("root span has a parent")
	}
	if byName["core.level"].Parent != byName["engine.topk"].ID {
		t.Error("core.level is not a child of the root")
	}
	if byName["core.prune.pass"].Parent != byName["core.level"].ID {
		t.Error("core.prune.pass is not a child of core.level")
	}
	lvl := byName["core.level"]
	if lvl.AttrNum("level") != 1 {
		t.Errorf("level attr = %v, want 1", lvl.AttrNum("level"))
	}
	if len(lvl.Events) != 1 || lvl.Events[0].Name != "bound.block" {
		t.Fatalf("events = %+v", lvl.Events)
	}
	// A second End must not file a duplicate span.
	child.End()
	if got := len(rec.Spans(root.TraceID())); got != 3 {
		t.Fatalf("after double End: %d spans, want 3", got)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(2)
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, sp := rec.Start(context.Background(), nil, "q")
		sp.End()
		ids = append(ids, sp.TraceID())
	}
	if got := len(rec.Traces()); got != 2 {
		t.Fatalf("retained %d traces, want 2", got)
	}
	if rec.Spans(ids[0]) != nil {
		t.Error("oldest trace not evicted")
	}
	if rec.Spans(ids[2]) == nil {
		t.Error("newest trace missing")
	}
}

func TestRecorderSpanCap(t *testing.T) {
	rec := NewRecorder(1)
	ctx, root := rec.Start(context.Background(), nil, "q")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := Start(ctx, nil, "core.prune.pass")
		sp.End()
	}
	root.End()
	sums := rec.Traces()
	if len(sums) != 1 {
		t.Fatalf("Traces: got %d, want 1", len(sums))
	}
	if sums[0].Spans != maxSpansPerTrace {
		t.Errorf("spans = %d, want cap %d", sums[0].Spans, maxSpansPerTrace)
	}
	if sums[0].Dropped != 11 { // 10 children over cap + the root itself
		t.Errorf("dropped = %d, want 11", sums[0].Dropped)
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var rec *Recorder
	ctx, ph := rec.Start(context.Background(), nil, "q")
	if ph.Traced() || Traced(ctx) {
		t.Fatal("nil recorder produced a span")
	}
	if rec.Traces() != nil || rec.Spans(TraceID{}) != nil {
		t.Error("nil recorder returned data")
	}
	// Every method of an untraced phase is a no-op but End, which
	// still times the phase.
	ph.Attr("k", 1)
	ph.Count("x.evals", 1)
	ph.Event("e")
	if ph.End() < 0 {
		t.Error("negative phase duration")
	}
	if ph.Recorder() != nil || !ph.TraceID().IsZero() || ph.SpanID() != 0 {
		t.Error("untraced phase leaked identity")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	rec := NewRecorder(1)
	ctx, root := rec.Start(context.Background(), nil, "server.topk")
	_, child := Start(ctx, nil, "core.level")
	child.End()
	_, instant := Start(ctx, nil, "engine.final")
	instant.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Spans(root.TraceID())); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not the trace_event object shape: %v\n%s", err, buf.Bytes())
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want a complete event", ev.Name, ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Errorf("complete event %q has non-positive dur %v (zero-width spans must be clamped visible)", ev.Name, ev.Dur)
		}
	}
	if len(file.TraceEvents) != 3 {
		t.Errorf("complete events = %d, want 3", len(file.TraceEvents))
	}
}

func TestBuildExplainFromSyntheticTrace(t *testing.T) {
	rec := NewRecorder(1)
	ctx, root := rec.Start(context.Background(), nil, "engine.topk")
	lctx, lvl := Start(ctx, nil, "core.level")
	lvl.Attr("level", 1)
	_, col := Start(lctx, nil, "core.collapse")
	col.Count("core.collapse.evals", 10)
	col.Attr("hits", 4)
	col.Attr("groups_before", 20)
	col.Observe("core.collapse.groups", 16)
	col.End()
	_, bnd := Start(lctx, nil, "core.bound")
	bnd.Count("core.bound.evals", 30)
	bnd.Attr("hits", 5)
	bnd.Gauge("core.bound.m_rank", 3)
	bnd.Gauge("core.bound.lower", 8.5)
	bnd.Event("bound.block", Num("scanned", 16), Num("independent", 3), Num("m", 8.5))
	bnd.End()
	pctx, prn := Start(lctx, nil, "core.prune")
	prn.Count("core.prune.evals", 40)
	prn.Attr("hits", 12)
	prn.Attr("stage0_pruned", 2)
	prn.Observe("core.prune.survivors", 9)
	_, st0 := Start(pctx, nil, "core.prune.stage0")
	st0.Attr("pruned", 2)
	st0.Attr("rounds", 3)
	time.Sleep(time.Millisecond) // a duration the clock cannot read as zero
	st0.End()
	for round := 1; round <= 2; round++ {
		_, pass := Start(pctx, nil, "core.prune.pass")
		pass.Attr("round", float64(round))
		pass.Observe("core.prune.pass.evals", 20)
		pass.Attr("hits", 6)
		pass.Observe("core.prune.pass.pruned", float64(3-round))
		pass.End()
	}
	prn.End()
	lvl.End()
	root.End()

	e := BuildExplain(rec.Spans(root.TraceID()))
	if e == nil {
		t.Fatal("BuildExplain returned nil")
	}
	if e.Name != "engine.topk" {
		t.Fatalf("root = %q", e.Name)
	}
	if len(e.Levels) != 1 {
		t.Fatalf("levels = %d, want 1", len(e.Levels))
	}
	l := e.Levels[0]
	if l.Level != 1 || l.CollapseEvals != 10 || l.CollapseHits != 4 ||
		l.GroupsBefore != 20 || l.GroupsAfter != 16 {
		t.Errorf("collapse fields: %+v", l)
	}
	if l.BoundEvals != 30 || l.MRank != 3 || l.M != 8.5 || len(l.BoundBlocks) != 1 {
		t.Errorf("bound fields: %+v", l)
	}
	if l.PruneEvals != 40 || l.Stage0Pruned != 2 || l.Survivors != 9 {
		t.Errorf("prune fields: %+v", l)
	}
	if len(l.Rounds) != 2 || l.Rounds[0].Round != 1 || l.Rounds[0].Pruned != 2 || l.Rounds[1].Pruned != 1 {
		t.Errorf("rounds: %+v", l.Rounds)
	}
	if l.Stage0Seconds <= 0 {
		t.Errorf("stage0_seconds = %v, want the core.prune.stage0 span's duration", l.Stage0Seconds)
	}
	e.StripTimings()
	if e.Seconds != 0 || e.Levels[0].CollapseSeconds != 0 || e.Levels[0].Stage0Seconds != 0 {
		t.Error("StripTimings left wall-clock fields set")
	}

	if BuildExplain(nil) != nil {
		t.Error("BuildExplain(nil) != nil")
	}
}
