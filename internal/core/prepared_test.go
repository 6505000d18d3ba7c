package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"topkdedup/internal/obs"
)

// TestPreparedLevelSharedAcrossQueries: one PreparedLevel, handed level
// 1's finished collapse the way a snapshot hands its maintained closure,
// given to many concurrent queries of different K gives each the result
// PrunedDedup gives from singletons — groups, order and every LevelStats
// count, CollapseEvals included — never collapses level 1 again (the
// sink counts no core.collapse.evals), writes nothing a finished query
// returned and keeps the collapsed groups rather than a copy.
func TestPreparedLevelSharedAcrossQueries(t *testing.T) {
	d := genDataset(31, 120, 6)
	levels := toyLevels()
	collapsed, evals := Collapse(d, singletonGroups(d), levels[0].Sufficient)
	sortGroupsByWeight(collapsed)
	collapsedCopy := append([]Group(nil), collapsed...)
	ks := []int{1, 4, 10, 40}
	want := map[int]*Result{}
	for _, k := range ks {
		res, err := PrunedDedup(d, levels, Options{K: k, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = stripResultTimes(res)
	}

	first := PrepareLevel(d, collapsed, levels[0], d.Len(), evals)
	sink := obs.NewCollector()
	got := make([]*Result, 4*len(ks))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := PrunedDedupPreparedCtx(context.Background(), d, first, levels, Options{K: ks[i%len(ks)], Workers: 1 + i%3, Sink: sink})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, res := range got {
		if k := ks[i%len(ks)]; !reflect.DeepEqual(stripResultTimes(res), want[k]) {
			t.Errorf("K=%d: prepared level diverges\n got=%+v\nwant=%+v", k, res, want[k])
		}
	}
	if n := sink.CounterValue("core.collapse.evals"); n != 0 {
		t.Errorf("core.collapse.evals = %d over %d queries of a prepared level 1, want 0", n, len(got))
	}
	if !reflect.DeepEqual(collapsed, collapsedCopy) {
		t.Error("the collapsed groups were written")
	}
	if &first.groups[0] != &collapsed[0] {
		t.Error("the level copied the collapsed groups it could have kept")
	}
}

// stripResultTimes returns a copy of res with the wall-clock phase
// times zeroed.
func stripResultTimes(res *Result) *Result {
	cp := *res
	cp.Stats = append([]LevelStats(nil), res.Stats...)
	for i := range cp.Stats {
		cp.Stats[i].CollapseTime, cp.Stats[i].BoundTime, cp.Stats[i].PruneTime = 0, 0, 0
	}
	return &cp
}
