package topk

import (
	"reflect"
	"runtime"
	"testing"
)

// TestEngineTopKWorkersDeterministic is the facade-level determinism
// guarantee: identical TopK answers (groups, scores, pruning stats
// modulo wall clock) for Workers in {1, 4, NumCPU} on the same data.
func TestEngineTopKWorkersDeterministic(t *testing.T) {
	d := toyData(21, 40, 6)
	counts := []int{4, runtime.NumCPU()}
	for _, k := range []int{3, 8} {
		cfg := Config{Workers: 1}
		eng := New(d, toyLevels(), oracleScorer(), cfg)
		ref, err := eng.TopK(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range counts {
			cfg := Config{Workers: w}
			got, err := New(d, toyLevels(), oracleScorer(), cfg).TopK(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answers, ref.Answers) {
				t.Errorf("k=%d workers=%d: answers differ from serial", k, w)
			}
			if got.Survivors != ref.Survivors || got.Exact != ref.Exact {
				t.Errorf("k=%d workers=%d: survivors/exact (%d,%v) != serial (%d,%v)",
					k, w, got.Survivors, got.Exact, ref.Survivors, ref.Exact)
			}
			for li := range got.Pruning {
				g, r := got.Pruning[li], ref.Pruning[li]
				g.CollapseTime, g.BoundTime, g.PruneTime = 0, 0, 0
				r.CollapseTime, r.BoundTime, r.PruneTime = 0, 0, 0
				if g != r {
					t.Errorf("k=%d workers=%d level %d: pruning stats differ", k, w, li)
				}
			}
		}
	}
}

// TestEngineDedupWorkersDeterministic covers the batch Dedup path.
func TestEngineDedupWorkersDeterministic(t *testing.T) {
	d := toyData(22, 25, 5)
	ref, err := New(d, toyLevels(), oracleScorer(), Config{Workers: 1}).Dedup()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		got, err := New(d, toyLevels(), oracleScorer(), Config{Workers: w}).Dedup()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: Dedup result differs from serial", w)
		}
	}
}
