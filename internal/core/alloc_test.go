package core

import "testing"

// stage0Fixture builds a warm Pruner over a generated dataset, skipping
// the test when the seed fails to establish a usable lower bound.
func stage0Fixture(tb testing.TB, entities, maxMentions, k int) *Pruner {
	tb.Helper()
	d := genDataset(7, entities, maxMentions)
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	_, lower, _ := EstimateLowerBound(d, groups, toyN(), k)
	if lower <= 0 {
		tb.Fatalf("setup: no lower bound established (entities=%d k=%d)", entities, k)
	}
	return NewPruner(d, groups, toyN(), lower, 1, nil)
}

// TestStage0PruneNoAllocs pins the evaluation-free stage-0 prune scan at
// zero allocations per run: after construction warms the Pruner's
// retained buffers (dense bucket totals, candidate scratch, stamp),
// RescanStage0 touches no fresh memory.
func TestStage0PruneNoAllocs(t *testing.T) {
	p := stage0Fixture(t, 200, 8, 3)
	p.RescanStage0() // warm the candidate scratch past its high-water mark
	if allocs := testing.AllocsPerRun(100, p.RescanStage0); allocs != 0 {
		t.Fatalf("RescanStage0 = %v allocs/op, want 0", allocs)
	}
}

// TestRescanStage0Reproducible: re-running the stage-0 cascades from
// scratch reproduces exactly the construction-time state.
func TestRescanStage0Reproducible(t *testing.T) {
	p := stage0Fixture(t, 120, 8, 3)
	wantPruned, wantAlive := p.Stage0Pruned(), p.Alive()
	for trial := 0; trial < 3; trial++ {
		p.RescanStage0()
		if p.Stage0Pruned() != wantPruned {
			t.Fatalf("trial %d: Stage0Pruned = %d, want %d", trial, p.Stage0Pruned(), wantPruned)
		}
		alive := p.Alive()
		if len(alive) != len(wantAlive) {
			t.Fatalf("trial %d: %d survivors, want %d", trial, len(alive), len(wantAlive))
		}
		for i := range alive {
			if alive[i].Rep != wantAlive[i].Rep {
				t.Fatalf("trial %d: survivor %d rep %d, want %d", trial, i, alive[i].Rep, wantAlive[i].Rep)
			}
		}
	}
}

// TestBoundScanAllocs pins the allocations of one §4.2 scan at one
// worker over boundInput's three blocks. K is past anything the 14
// letters can certify and past the Min-fill check interval, so every
// block is enumerated, verified and consumed and no full check runs
// (Min-fill's map-backed graphs allocate a varying amount). The scan
// builds its per-call state — intern table, buckets, seen stamps, the
// prefix graph's adjacency maps, the bound evaluator — so the pin is not
// zero; it is what the scan reads, plus one allocation the runtime is
// sometimes counted for, and a per-block or per-rank allocation sneaking
// in breaks it.
func TestBoundScanAllocs(t *testing.T) {
	const want = 6759
	d, groups := boundInput(t, 0)
	n := toyN()
	allocs := testing.AllocsPerRun(20, func() {
		EstimateLowerBound(d, groups, n, 10000)
	})
	if allocs > want+1 {
		t.Fatalf("EstimateLowerBound = %v allocs/op, want %d", allocs, want)
	}
}

// BenchmarkStage0Prune measures the evaluation-free stage-0 cascade in
// steady state (buffers warm, no predicate evaluations).
func BenchmarkStage0Prune(b *testing.B) {
	p := stage0Fixture(b, 500, 8, 5)
	p.RescanStage0()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RescanStage0()
	}
}
