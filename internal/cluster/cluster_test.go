package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"topkdedup/internal/score"
)

// toy working set: {0,1,2} positive triangle, {3,4} positive pair, cross
// negative.
func toyPF() (score.PairFunc, []Edge) {
	scores := map[[2]int]float64{
		{0, 1}: 2, {0, 2}: 1.5, {1, 2}: 1,
		{3, 4}: 2,
		{2, 3}: -1, {0, 3}: -2,
	}
	pf := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return scores[[2]int{i, j}]
	}
	var edges []Edge
	for e := range scores {
		edges = append(edges, Edge{A: e[0], B: e[1]})
	}
	return pf, edges
}

func TestTransitiveClosure(t *testing.T) {
	pf, edges := toyPF()
	got := TransitiveClosure(5, pf, edges)
	want := [][]int{{0, 1, 2}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TransitiveClosure = %v, want %v", got, want)
	}
}

func TestTransitiveClosureChains(t *testing.T) {
	// Chaining through weak positives merges everything — the known
	// weakness of the baseline.
	pf := func(i, j int) float64 {
		if j-i == 1 {
			return 0.1
		}
		return -5
	}
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}
	got := TransitiveClosure(4, pf, edges)
	if len(got) != 1 || len(got[0]) != 4 {
		t.Errorf("chain should merge all: %v", got)
	}
}

func TestPivotBasics(t *testing.T) {
	pf, edges := toyPF()
	got := Pivot(5, pf, edges, 1)
	// All partitions must cover every item exactly once.
	assertPartition(t, got, 5)
	// The strongly-positive pair {3,4} should be together under any pivot
	// order for this instance.
	if clusterOf(got, 3) != clusterOf(got, 4) {
		t.Errorf("3 and 4 should share a cluster: %v", got)
	}
}

func TestLocalSearchImproves(t *testing.T) {
	pf, edges := toyPF()
	// Start from everything-in-one-cluster and let local search fix it.
	start := [][]int{{0, 1, 2, 3, 4}}
	improved := LocalSearch(5, pf, edges, start, 10)
	assertPartition(t, improved, 5)
	if WithinScore(pf, edges, improved) < WithinScore(pf, edges, start) {
		t.Error("local search must not decrease the objective")
	}
}

func TestWithinScore(t *testing.T) {
	pf, edges := toyPF()
	if got := WithinScore(pf, edges, [][]int{{0, 1, 2}, {3, 4}}); got != 6.5 {
		t.Errorf("WithinScore = %v, want 6.5", got)
	}
	if got := WithinScore(pf, edges, [][]int{{0}, {1}, {2}, {3}, {4}}); got != 0 {
		t.Errorf("singletons WithinScore = %v, want 0", got)
	}
}

func TestExactOptimal(t *testing.T) {
	pf, edges := toyPF()
	res := Exact(5, pf, edges, 18)
	if !res.Exact {
		t.Fatal("small instance should be solved exactly")
	}
	want := [][]int{{0, 1, 2}, {3, 4}}
	if !reflect.DeepEqual(res.Clusters, want) {
		t.Errorf("Exact = %v, want %v", res.Clusters, want)
	}
}

func TestExactSplitsWeakChains(t *testing.T) {
	// a-b positive, b-c positive but a-c strongly negative: optimum keeps
	// the two positives only if the negative doesn't outweigh them.
	scores := map[[2]int]float64{{0, 1}: 1, {1, 2}: 1, {0, 2}: -5}
	pf := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return scores[[2]int{i, j}]
	}
	edges := []Edge{{0, 1}, {1, 2}, {0, 2}}
	res := Exact(3, pf, edges, 18)
	// Options: {012}: 1+1-5 = -3; {01}{2}: 1; {0}{12}: 1; singletons: 0.
	// Optimum score 1, two optima; branch-and-bound order gives {0,1},{2}.
	best := WithinScore(pf, edges, res.Clusters)
	if best != 1 {
		t.Errorf("optimal within-score = %v, want 1 (clusters %v)", best, res.Clusters)
	}
}

// Property: Exact beats (or ties) transitive closure, pivot, and local
// search on the shared objective.
func TestExactDominatesHeuristics(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(9)
		scores := map[[2]int]float64{}
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					continue
				}
				scores[[2]int{i, j}] = r.Float64()*4 - 2
				edges = append(edges, Edge{A: i, B: j})
			}
		}
		pf := func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			return scores[[2]int{i, j}]
		}
		res := Exact(n, pf, edges, 18)
		if !res.Exact {
			t.Fatalf("trial %d: expected exact solve for n=%d", trial, n)
		}
		assertPartition(t, res.Clusters, n)
		best := WithinScore(pf, edges, res.Clusters)
		for name, alt := range map[string][][]int{
			"tc":    TransitiveClosure(n, pf, edges),
			"pivot": Pivot(n, pf, edges, int64(trial)),
		} {
			if s := WithinScore(pf, edges, alt); s > best+1e-9 {
				t.Errorf("trial %d: %s score %v beats exact %v", trial, name, s, best)
			}
		}
	}
}

func TestExactFallbackOnLargeComponent(t *testing.T) {
	// A positive path of 25 items exceeds maxComponent=10.
	n := 25
	pf := func(i, j int) float64 {
		if j-i == 1 || i-j == 1 {
			return 1
		}
		return -1
	}
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{A: i, B: i + 1})
	}
	res := Exact(n, pf, edges, 10)
	if res.Exact {
		t.Error("oversized component must clear the Exact flag")
	}
	if res.LargestComponent != n {
		t.Errorf("LargestComponent = %d, want %d", res.LargestComponent, n)
	}
	assertPartition(t, res.Clusters, n)
}

func TestAgglomerativeLeafOrder(t *testing.T) {
	pf, _ := toyPF()
	d := Agglomerative(5, pf, AverageLink)
	order := d.LeafOrder()
	if len(order) != 5 {
		t.Fatalf("leaf order %v", order)
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("leaf order repeats %d", v)
		}
		seen[v] = true
	}
}

func TestAgglomerativeLinkages(t *testing.T) {
	pf, _ := toyPF()
	for _, link := range []Linkage{SingleLink, AverageLink, CompleteLink} {
		d := Agglomerative(5, pf, link)
		if len(d.Merges) != 4 {
			t.Errorf("linkage %d: %d merges, want 4", link, len(d.Merges))
		}
	}
	// Leaf adjacency: positive pairs should be near each other with
	// average link: positions of 3 and 4 adjacent.
	d := Agglomerative(5, pf, AverageLink)
	order := d.LeafOrder()
	pos := map[int]int{}
	for p, v := range order {
		pos[v] = p
	}
	if diff := pos[3] - pos[4]; diff != 1 && diff != -1 {
		t.Errorf("3 and 4 should be adjacent in leaf order %v", order)
	}
}

func TestAgglomerativeEmpty(t *testing.T) {
	d := Agglomerative(0, func(i, j int) float64 { return 0 }, AverageLink)
	if d.LeafOrder() != nil {
		t.Error("empty dendrogram leaf order should be nil")
	}
	one := Agglomerative(1, func(i, j int) float64 { return 0 }, AverageLink)
	if got := one.LeafOrder(); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-leaf order = %v", got)
	}
}

func assertPartition(t *testing.T, clusters [][]int, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, c := range clusters {
		for _, v := range c {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d covered %d times in %v", v, c, clusters)
		}
	}
}

func clusterOf(clusters [][]int, v int) int {
	for ci, c := range clusters {
		for _, x := range c {
			if x == v {
				return ci
			}
		}
	}
	return -1
}
