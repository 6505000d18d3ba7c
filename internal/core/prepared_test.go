package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"topkdedup/internal/obs"
)

// TestPreparedLevelSharedAcrossQueries: one PreparedLevel handed to many
// concurrent queries of different K gives each the result
// PrunedDedupFromCtx gives on the same starting groups — groups, order
// and every LevelStats count — runs its collapse once (the sink counts
// core.collapse.evals where the collapse ran, once), and writes neither
// the starting groups nor anything a finished query returned. Starting
// groups already collapsed and in order are the snapshot's case: the
// level then keeps them as they are rather than a copy.
func TestPreparedLevelSharedAcrossQueries(t *testing.T) {
	d := genDataset(31, 120, 6)
	levels := toyLevels()
	singles := singletonGroups(d)
	collapsed, _ := Collapse(d, singletonGroups(d), levels[0].Sufficient)
	sortGroupsByWeight(collapsed)
	for name, start := range map[string][]Group{"singletons": singles, "collapsed": collapsed} {
		startCopy := append([]Group(nil), start...)
		ks := []int{1, 4, 10, 40}
		want := map[int]*Result{}
		for _, k := range ks {
			res, err := PrunedDedupFromCtx(context.Background(), d, append([]Group(nil), start...), levels, Options{K: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want[k] = stripResultTimes(res)
		}

		first := PrepareLevel(d, start, levels[0])
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
				t.Errorf("%s K=%d: prepared level diverges\n got=%+v\nwant=%+v", name, k, res, want[k])
			}
		}
		if n := sink.CounterValue("core.collapse.evals"); n != want[1].Stats[0].CollapseEvals {
			t.Errorf("%s: core.collapse.evals = %d over %d queries, want one collapse's %d", name, n, len(got), want[1].Stats[0].CollapseEvals)
		}
		if !reflect.DeepEqual(start, startCopy) {
			t.Errorf("%s: the starting groups were written", name)
		}
		if name == "collapsed" && &first.groups[0] != &start[0] {
			t.Error("collapsed: the level copied starting groups it could have kept")
		}
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
