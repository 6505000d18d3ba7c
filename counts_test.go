package topk

import (
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/experiments"
)

// TestExactCountsCitations pins what the pruning pipeline counts on one
// fixed-seed citation dataset (3,000 requested, 2,970 generated), per K
// and per level: n, the rank m, the bound M, n′ and the bound-scan and
// prune evaluation counts. The numbers do not depend on the host or the
// worker count, so ci.sh can fail on them where it cannot on a wall
// clock. A change that only makes a verdict cheaper leaves every row as
// it is; one that evaluates, keeps or orders differently shows here and
// must say why.
func TestExactCountsCitations(t *testing.T) {
	dd, err := experiments.CitationSetup(3000, false)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		k, level, nGroups, mRank int
		lowerBound               float64
		survivors                int
		boundEvals, pruneEvals   int64
	}
	want := []row{
		{1, 1, 1495, 1, 69, 10, 0, 54098},
		{1, 2, 10, 1, 69, 10, 0, 10},
		{10, 1, 1495, 17, 12, 136, 13, 112787},
		{10, 2, 136, 17, 12, 132, 13, 1367},
		{50, 1, 1495, 68, 6, 347, 150, 102114},
		{50, 2, 346, 68, 6, 332, 148, 5612},
	}
	for _, workers := range []int{1, 2} {
		var got []row
		for _, k := range []int{1, 10, 50} {
			res, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Stats {
				got = append(got, row{k, s.Level, s.NGroups, s.MRank, s.LowerBound, s.Survivors, s.BoundEvals, s.PruneEvals})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d (K, level) rows, want %d: %+v", workers, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d K=%d level %d:\n got %+v\nwant %+v", workers, want[i].k, want[i].level, got[i], want[i])
			}
		}
	}
}
