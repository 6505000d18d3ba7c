package embed

import (
	"math/rand"
	"testing"

	"topkdedup/internal/score"
)

// twoClusterPF: items 0-2 mutually positive, 3-5 mutually positive,
// cross pairs negative.
func twoClusterPF() (score.PairFunc, []Edge, int) {
	n := 6
	group := func(i int) int {
		if i < 3 {
			return 0
		}
		return 1
	}
	pf := func(i, j int) float64 {
		if group(i) == group(j) {
			return 1
		}
		return -1
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{A: i, B: j})
		}
	}
	return pf, edges, n
}

func TestGreedyIsPermutation(t *testing.T) {
	pf, edges, n := twoClusterPF()
	order := Greedy(n, pf, edges)
	if len(order) != n {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[v] = true
	}
}

func TestGreedyGroupsContiguous(t *testing.T) {
	pf, edges, n := twoClusterPF()
	order := Greedy(n, pf, edges)
	// Each true cluster should occupy contiguous positions.
	group := func(i int) int {
		if i < 3 {
			return 0
		}
		return 1
	}
	switches := 0
	for p := 1; p < n; p++ {
		if group(order[p]) != group(order[p-1]) {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("clusters not contiguous in %v (%d switches)", order, switches)
	}
}

func TestGreedyBeatsRandomOnCost(t *testing.T) {
	// Larger instance: 10 clusters of 8; greedy embedding cost should be
	// far below a random permutation's.
	r := rand.New(rand.NewSource(3))
	n := 80
	group := make([]int, n)
	for i := range group {
		group[i] = i / 8
	}
	perm := r.Perm(n) // shuffle item ids so clusters are not contiguous
	gOf := make([]int, n)
	for i, p := range perm {
		gOf[p] = group[i]
	}
	pf := func(i, j int) float64 {
		if gOf[i] == gOf[j] {
			return 1
		}
		return -1
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if gOf[i] == gOf[j] || r.Intn(10) == 0 {
				edges = append(edges, Edge{A: i, B: j})
			}
		}
	}
	greedy := Greedy(n, pf, edges)
	random := Random(n, 7)
	cg, cr := Cost(greedy, pf, edges), Cost(random, pf, edges)
	if cg >= cr {
		t.Errorf("greedy cost %v should beat random %v", cg, cr)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	pf, edges, n := twoClusterPF()
	a := Greedy(n, pf, edges)
	b := Greedy(n, pf, edges)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy embedding must be deterministic")
		}
	}
}

func TestGreedyNoEdges(t *testing.T) {
	order := Greedy(4, func(i, j int) float64 { return 0 }, nil)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestIdentityAndRandom(t *testing.T) {
	id := Identity(5)
	for i, v := range id {
		if v != i {
			t.Fatalf("Identity = %v", id)
		}
	}
	r1, r2 := Random(20, 1), Random(20, 1)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("Random with same seed must repeat")
		}
	}
	r3 := Random(20, 2)
	diff := false
	for i := range r1 {
		if r1[i] != r3[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestCost(t *testing.T) {
	pf := func(i, j int) float64 { return 1 }
	edges := []Edge{{0, 1}}
	// Adjacent: distance 1.
	if got := Cost([]int{0, 1, 2}, pf, edges); got != 1 {
		t.Errorf("Cost = %v, want 1", got)
	}
	// Far apart: distance 2.
	if got := Cost([]int{0, 2, 1}, pf, edges); got != 2 {
		t.Errorf("Cost = %v, want 2", got)
	}
	// Negative edges contribute nothing.
	neg := func(i, j int) float64 { return -1 }
	if got := Cost([]int{0, 1, 2}, neg, edges); got != 0 {
		t.Errorf("negative edge cost = %v, want 0", got)
	}
}
