package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// workerCounts is the table every determinism test sweeps: serial, a
// fixed multi-worker pool, and whatever the host offers.
func workerCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	if runtime.NumCPU() == 4 {
		counts = counts[:2]
	}
	return counts
}

// TestCollapseWorkersDeterministic: the merged groups AND the eval
// counter must be byte-identical at every worker count — parallelism may
// only change the wall clock.
func TestCollapseWorkersDeterministic(t *testing.T) {
	d := genDataset(11, 60, 6)
	base := singletonGroups(d)
	refGroups, refEvals := CollapseWorkers(d, singletonGroups(d), toyS(), 1)
	sortGroupsByWeight(refGroups)
	for _, w := range workerCounts()[1:] {
		got, evals := CollapseWorkers(d, append([]Group(nil), base...), toyS(), w)
		sortGroupsByWeight(got)
		if evals != refEvals {
			t.Errorf("workers=%d: evals %d != serial %d", w, evals, refEvals)
		}
		if !reflect.DeepEqual(got, refGroups) {
			t.Errorf("workers=%d: collapsed groups differ from serial", w)
		}
	}
}

// TestEstimateLowerBoundWorkersDeterministic: m, M, and the eval counter
// match the serial scan at every worker count.
func TestEstimateLowerBoundWorkersDeterministic(t *testing.T) {
	d := genDataset(12, 80, 6)
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	for _, k := range []int{1, 3, 8} {
		refM, refLower, refEvals, refHits := EstimateLowerBoundCtx(context.Background(), d, groups, toyN(), k, 1)
		for _, w := range workerCounts()[1:] {
			m, lower, evals, hits := EstimateLowerBoundCtx(context.Background(), d, groups, toyN(), k, w)
			if m != refM || lower != refLower || evals != refEvals || hits != refHits {
				t.Errorf("k=%d workers=%d: (m=%d M=%v evals=%d hits=%d) != serial (m=%d M=%v evals=%d hits=%d)",
					k, w, m, lower, evals, hits, refM, refLower, refEvals, refHits)
			}
		}
	}
}

// TestPruneWorkersDeterministic: the survivor set and the eval counter
// match the serial passes at every worker count.
func TestPruneWorkersDeterministic(t *testing.T) {
	d := genDataset(13, 80, 6)
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	for _, k := range []int{2, 5} {
		_, m, _ := EstimateLowerBound(d, groups, toyN(), k)
		if m == 0 {
			continue
		}
		refAlive, refEvals := Prune(d, groups, toyN(), m, 2)
		for _, w := range workerCounts()[1:] {
			alive, evals, _ := PruneCtx(context.Background(), d, groups, toyN(), m, 2, w, nil)
			if evals != refEvals {
				t.Errorf("k=%d workers=%d: evals %d != serial %d", k, w, evals, refEvals)
			}
			if !reflect.DeepEqual(alive, refAlive) {
				t.Errorf("k=%d workers=%d: survivors differ from serial", k, w)
			}
		}
	}
}

// TestPrunedDedupWorkersDeterministic runs the whole Algorithm-2 pipeline
// and requires identical groups and identical per-level stats (counters
// included; only the timings may differ) at every worker count.
func TestPrunedDedupWorkersDeterministic(t *testing.T) {
	d := genDataset(14, 100, 6)
	for _, k := range []int{1, 4, 10} {
		ref, err := PrunedDedup(d, toyLevels(), Options{K: k, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts()[1:] {
			got, err := PrunedDedup(d, toyLevels(), Options{K: k, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, ref.Groups) {
				t.Errorf("k=%d workers=%d: surviving groups differ from serial", k, w)
			}
			if got.ExactlyK != ref.ExactlyK {
				t.Errorf("k=%d workers=%d: ExactlyK %v != %v", k, w, got.ExactlyK, ref.ExactlyK)
			}
			if len(got.Stats) != len(ref.Stats) {
				t.Fatalf("k=%d workers=%d: %d levels != %d", k, w, len(got.Stats), len(ref.Stats))
			}
			for li := range got.Stats {
				g, r := got.Stats[li], ref.Stats[li]
				// Zero the wall-clock fields; everything else must match.
				g.CollapseTime, g.BoundTime, g.PruneTime = 0, 0, 0
				r.CollapseTime, r.BoundTime, r.PruneTime = 0, 0, 0
				if g != r {
					t.Errorf("k=%d workers=%d level %d: stats %+v != serial %+v", k, w, li, g, r)
				}
			}
		}
	}
}
