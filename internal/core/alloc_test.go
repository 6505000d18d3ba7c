package core

import (
	"context"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/index"
)

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

// TestPrunePassAllocs pins one warm exact pass at one worker to at most
// one allocation, the worker closure: the gate and every group's walk
// (its per-candidate key counts included) run in buffers the Pruner
// retains. Each run restores the stage-0 state first (pinned at
// zero allocations above), so every run is the same first pass.
func TestPrunePassAllocs(t *testing.T) {
	p := stage0Fixture(t, 200, 8, 3)
	ctx := context.Background()
	pass := func() int64 {
		p.RescanStage0()
		_, evals, _ := p.PassCtx(ctx)
		return evals
	}
	if pass() == 0 {
		t.Fatal("setup: the pass evaluated nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { pass() }); allocs > 1 {
		t.Fatalf("PassCtx = %v allocs/op, want at most 1", allocs)
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
// worker over boundInput's three blocks, reading an index built outside
// the measurement — as the level loop's scan reads its level's index. K
// is past anything the 14 letters can certify and past the Min-fill
// check interval, so every block is enumerated, verified and consumed and
// no full check runs (Min-fill's map-backed graphs allocate a varying
// amount). The scan builds its per-call state — seen stamps, pair and
// verdict lists, the prefix graph's adjacency maps, the bound evaluator —
// so the pin is not zero; it is what the scan reads, plus one allocation
// the runtime is sometimes counted for, and a per-block or per-rank
// allocation sneaking in breaks it.
func TestBoundScanAllocs(t *testing.T) {
	const want = 5460
	d, groups := boundInput(t, 0)
	n := toyN()
	ix := BlockReps(d, groups, n, nil)
	block := func() *index.IDIndex { return ix }
	allocs := testing.AllocsPerRun(20, func() {
		estimateLowerBound(context.Background(), nil, d, groups, n, block, 10000, 1)
	})
	if allocs > want+1 {
		t.Fatalf("estimateLowerBound = %v allocs/op, want %d", allocs, want)
	}
}

// TestBlockAllocs pins what one index build costs: citations N1 over
// the representatives of a 3,000-record dataset's level-1 groups (1,495
// of them, 10,100 gram keys, 2,113 distinct). The build allocates the call's key
// table, one flat id buffer (grown by doubling), the index's offset and
// item slices, and the representative list — a count that grows with
// the logarithm of the key count, never with the count itself. The gram
// cache is warmed first: what it memoises is not the build's.
func TestBlockAllocs(t *testing.T) {
	const want = 38
	d := datagen.Citations(datagen.DefaultCitationConfig(3000))
	level := domains.Citations(domains.BuildDistinctCorpus(d, datagen.FieldAuthor), domains.CitationOptions{}).Levels[0]
	groups, _ := Collapse(d, singletonGroups(d), level.Sufficient)
	BlockReps(d, groups, level.Necessary, nil)
	allocs := testing.AllocsPerRun(20, func() {
		BlockReps(d, groups, level.Necessary, nil)
	})
	if allocs > want+1 {
		t.Fatalf("BlockReps(N1) over %d groups = %v allocs/op, want %d", len(groups), allocs, want)
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
