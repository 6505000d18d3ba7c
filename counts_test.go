package topk

import (
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/experiments"
)

// countsRow is one (K, level) row of an exact-count table: n, the rank
// m, the bound M, n′ and the bound-scan and prune evaluation counts.
type countsRow struct {
	k, level, nGroups, mRank int
	lowerBound               float64
	survivors                int
	boundEvals, pruneEvals   int64
}

// checkExactCounts prunes dd at K ∈ {1, 10, 50} and Workers ∈ {1, 2} and
// compares every level's row with want.
func checkExactCounts(t *testing.T, dd *experiments.DomainData, want []countsRow) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		var got []countsRow
		for _, k := range []int{1, 10, 50} {
			res, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Stats {
				got = append(got, countsRow{k, s.Level, s.NGroups, s.MRank, s.LowerBound, s.Survivors, s.BoundEvals, s.PruneEvals})
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

// TestExactCountsCitations pins what the pruning pipeline counts on one
// fixed-seed citation dataset (3,000 requested, 2,970 generated), one
// fixed-seed students dataset and one fixed-seed address dataset, per K
// and per level: n, the rank m, the
// bound M, n′ and the bound-scan and prune evaluation counts. The
// numbers do not depend on the host or the worker count, so ci.sh can
// fail on them where it cannot on a wall clock. A change that only makes
// a verdict or a scan cheaper leaves every row as it is; one that
// evaluates, keeps or orders differently shows here and must say why.
func TestExactCountsCitations(t *testing.T) {
	t.Run("citations", func(t *testing.T) {
		dd, err := experiments.CitationSetup(3000, false)
		if err != nil {
			t.Fatal(err)
		}
		checkExactCounts(t, dd, []countsRow{
			{1, 1, 1495, 1, 69, 10, 0, 1368},
			{1, 2, 10, 1, 69, 10, 0, 14},
			{10, 1, 1495, 17, 12, 136, 13, 1734},
			{10, 2, 136, 17, 12, 132, 13, 451},
			{50, 1, 1495, 68, 6, 347, 150, 1576},
			{50, 2, 346, 68, 6, 332, 148, 757},
		})
	})
	t.Run("students", func(t *testing.T) {
		dd, err := experiments.StudentSetup(3000, false)
		if err != nil {
			t.Fatal(err)
		}
		checkExactCounts(t, dd, []countsRow{
			{1, 1, 1377, 1, 713.9285518074853, 146, 0, 558},
			{1, 2, 135, 1, 713.9285518074853, 3, 0, 12},
			{10, 1, 1377, 10, 522.7827930239284, 331, 0, 797},
			{10, 2, 297, 10, 533.0978490345308, 45, 0, 100},
			{50, 1, 1377, 51, 392.6906619562525, 552, 1, 952},
			{50, 2, 493, 50, 408.9192529799738, 163, 1, 326},
		})
	})
	t.Run("addresses", func(t *testing.T) {
		dd, err := experiments.AddressSetup(3000, false)
		if err != nil {
			t.Fatal(err)
		}
		checkExactCounts(t, dd, []countsRow{
			{1, 1, 441, 1, 649.034558945075, 6, 0, 10},
			{10, 1, 441, 16, 63.68667102968032, 53, 7, 162},
			{50, 1, 441, 75, 9.74130250913963, 173, 74, 279},
		})
	})
}
