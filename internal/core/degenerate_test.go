package core

import (
	"context"
	"testing"

	"topkdedup/internal/records"
)

// Degenerate inputs to the bound and prune phases: k larger than the
// group list, empty group lists, and lists holding nothing but
// singletons that share no blocking key. These must all come back as
// clean no-ops (m = 0 disables pruning; pruning with a positive M keeps
// every group that can reach it) rather than panics or spurious kills.

func singletonOnlyDataset(n int) *records.Dataset {
	d := records.New("singletons", "name")
	for i := 0; i < n; i++ {
		// Distinct first letters: no necessary-predicate key is shared,
		// so every group is its own canopy component.
		d.Append(1+float64(i)/10, "", string(rune('a'+i))+"x")
	}
	return d
}

func TestEstimateLowerBoundKLargerThanGroups(t *testing.T) {
	d := singletonOnlyDataset(5)
	groups := SingletonGroups(d)
	SortGroupsByWeight(groups)
	m, lower, _ := EstimateLowerBound(d, groups, toyN(), len(groups)+3)
	if m != 0 || lower != 0 {
		t.Fatalf("k > len(groups): want m=0 M=0, got m=%d M=%v", m, lower)
	}
	// Pruning with the disabled bound must be the identity.
	alive, evals := Prune(d, groups, toyN(), lower, 2)
	if len(alive) != len(groups) || evals != 0 {
		t.Fatalf("prune with M=0: want all %d groups and 0 evals, got %d groups %d evals",
			len(groups), len(alive), evals)
	}
}

func TestEstimateLowerBoundEmptyInputs(t *testing.T) {
	d := records.New("empty", "name")
	m, lower, evals := EstimateLowerBound(d, nil, toyN(), 3)
	if m != 0 || lower != 0 || evals != 0 {
		t.Fatalf("empty groups: want zeros, got m=%d M=%v evals=%d", m, lower, evals)
	}
	if _, _, e := EstimateLowerBound(d, nil, toyN(), 0); e != 0 {
		t.Fatalf("k < 1: want 0 evals, got %d", e)
	}
	alive, evals := Prune(d, nil, toyN(), 5, 2)
	if len(alive) != 0 || evals != 0 {
		t.Fatalf("empty prune: want no groups and 0 evals, got %d groups %d evals", len(alive), evals)
	}
}

func TestBoundAndPruneSingletonOnlyShard(t *testing.T) {
	// Key-disjoint singletons: the N-graph has no edges, so
	// the greedy independent set certifies k entities at rank exactly k,
	// and M is the k-th weight.
	d := singletonOnlyDataset(6)
	groups := SingletonGroups(d)
	SortGroupsByWeight(groups)
	k := 3
	m, lower, evals := EstimateLowerBound(d, groups, toyN(), k)
	if m != k {
		t.Fatalf("edge-free groups: want m=%d, got %d", k, m)
	}
	if lower != groups[k-1].Weight {
		t.Fatalf("want M=%v (k-th weight), got %v", groups[k-1].Weight, lower)
	}
	if evals != 0 {
		t.Fatalf("no keys shared: want 0 evals, got %d", evals)
	}
	// Pruning: every singleton below M has an empty neighbourhood, so
	// exactly the top weights >= M survive (ties kept by contract).
	alive, _ := Prune(d, groups, toyN(), lower, 2)
	if len(alive) != k {
		t.Fatalf("want %d survivors, got %d", k, len(alive))
	}
	for i, g := range alive {
		if g.Weight < lower {
			t.Fatalf("survivor %d has weight %v < M %v", i, g.Weight, lower)
		}
	}
}

func TestPrunerPassesMatchWrapper(t *testing.T) {
	// Driving the stateful Pruner pass-by-pass must reproduce Prune
	// exactly when the stop rule is the same.
	d := genDataset(7, 40, 6)
	groups := SingletonGroups(d)
	SortGroupsByWeight(groups)
	_, m, _ := EstimateLowerBound(d, groups, toyN(), 5)
	if m <= 0 {
		t.Skip("toy dataset produced no usable bound")
	}
	want, wantEvals := Prune(d, groups, toyN(), m, 2)

	p := NewPruner(d, groups, toyN(), m, 1, nil)
	var evals int64
	for pass := 0; pass < 2; pass++ {
		pruned, pe, _ := p.PassCtx(context.Background())
		evals += pe
		if pruned == 0 {
			break
		}
	}
	got := p.Alive()
	if len(got) != len(want) || evals != wantEvals {
		t.Fatalf("pruner: %d survivors %d evals, wrapper: %d survivors %d evals",
			len(got), evals, len(want), wantEvals)
	}
	for i := range got {
		if got[i].Rep != want[i].Rep {
			t.Fatalf("survivor %d: rep %d != %d", i, got[i].Rep, want[i].Rep)
		}
	}
}
