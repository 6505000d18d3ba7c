package stream

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
)

// cloneResult copies a pruning result deeply enough that zeroing the
// copy's phase times leaves the original alone.
func cloneResult(res *core.Result) *core.Result {
	cp := *res
	cp.Stats = append([]core.LevelStats(nil), res.Stats...)
	stripTimes(&cp)
	return &cp
}

// TestSnapshotTopKOncePerK pins the per-K memo: however many goroutines
// ask one snapshot for however many K at once, each K's pruning runs
// once (the sink's core.levels count is the sum of one run per K), every
// caller of a K gets the same *core.Result, that result equals an
// unmemoised run, and every call but the first of its K is counted under
// stream.topk.reused. A FreshTopKCtx neither reads nor fills the memo.
func TestSnapshotTopKOncePerK(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 21, 40, 10)
	snap := inc.Snapshot()
	ks := []int{1, 3, 5}

	var wantLevels int64
	fresh := make(map[int]*core.Result)
	for _, k := range ks {
		res, err := snap.FreshTopKCtx(context.Background(), k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh[k] = cloneResult(res)
		wantLevels += int64(len(res.Stats))
	}

	const goroutines, rounds = 8, 4
	sink := obs.NewCollector()
	got := make([][]*core.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, k := range ks {
					res, err := snap.TopKCtx(context.Background(), k, 1+g%3, sink)
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for i, res := range got[g] {
			k := ks[i%len(ks)]
			if res != got[0][i%len(ks)] {
				t.Fatalf("goroutine %d call %d: K=%d answered from a second pruning", g, i, k)
			}
			if !reflect.DeepEqual(cloneResult(res), fresh[k]) {
				t.Fatalf("K=%d: memoised result differs from a fresh run\n got=%+v\nwant=%+v", k, res, fresh[k])
			}
		}
	}
	if n := sink.CounterValue("core.levels"); n != wantLevels {
		t.Errorf("core.levels = %d, want %d: one pruning per K", n, wantLevels)
	}
	calls := int64(goroutines * rounds * len(ks))
	if n := sink.CounterValue("stream.topk.reused"); n != calls-int64(len(ks)) {
		t.Errorf("stream.topk.reused = %d, want %d of %d calls", n, calls-int64(len(ks)), calls)
	}
	if n := sink.Snapshot().Observations["stream.topk.seconds"].Count; n != calls {
		t.Errorf("stream.topk.seconds has %d samples, want one per call (%d)", n, calls)
	}
}

// TestSnapshotTopKErrorNotKept: a failed pruning is handed to the calls
// that waited on it and then dropped, so the memo never answers from an
// error.
func TestSnapshotTopKErrorNotKept(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 22, 10, 4)
	snap := inc.Snapshot()
	for i := 0; i < 2; i++ {
		if _, err := snap.TopK(0, 1, nil); err == nil {
			t.Fatal("K=0 should error")
		}
		if n := len(snap.pruned); n != 0 {
			t.Fatalf("memo kept %d entries after an error", n)
		}
	}
	if _, err := snap.TopK(2, 1, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(snap.pruned); n != 1 {
		t.Fatalf("memo holds %d entries after one good K, want 1", n)
	}
}

// TestSnapshotTopKReusedSpan: under a traced context the call that runs
// a pruning records the core.* tree beneath its stream.topk span; a call
// that reuses it records stream.topk alone, marked reused=1.
func TestSnapshotTopKReusedSpan(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 23, 20, 6)
	snap := inc.Snapshot()
	rec := obs.NewRecorder(4)
	spansOf := func() []obs.SpanRecord {
		ctx, root := rec.StartTrace(context.Background(), "test.query")
		if _, err := snap.TopKCtx(ctx, 3, 1, nil); err != nil {
			t.Fatal(err)
		}
		root.End()
		return rec.Spans(root.TraceID())
	}
	first, second := spansOf(), spansOf()
	count := func(spans []obs.SpanRecord, name string) (n int, last obs.SpanRecord) {
		for _, sp := range spans {
			if sp.Name == name {
				n, last = n+1, sp
			}
		}
		return n, last
	}
	if n, _ := count(first, "core.level"); n == 0 {
		t.Error("computing call recorded no core.level span")
	}
	if _, sp := count(first, "stream.topk"); sp.AttrNum("reused") != 0 {
		t.Errorf("computing call marked reused: %v", sp.Attrs)
	}
	if len(second) != 2 {
		t.Errorf("reusing call recorded %d spans, want the root and stream.topk only: %+v", len(second), second)
	}
	if n, sp := count(second, "stream.topk"); n != 1 || sp.AttrNum("reused") != 1 {
		t.Errorf("reusing call: %d stream.topk spans, attrs %v, want one with reused=1", n, sp.Attrs)
	}
}
