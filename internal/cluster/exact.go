package cluster

import (
	"context"
	"sort"

	"topkdedup/internal/dsu"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/score"
)

// Result is the output of Exact.
type Result struct {
	Clusters [][]int
	// Exact reports whether the returned partition is a guaranteed
	// optimum of the correlation-clustering objective. It is false when
	// some positive-edge component exceeded the branch-and-bound size
	// limit and a pivot+local-search fallback was used there.
	Exact bool
	// LargestComponent is the size of the biggest positive component
	// encountered (diagnostic).
	LargestComponent int
}

// Exact computes the optimal correlation clustering of the working set.
//
// It stands in for the paper's LP-based reference (Charikar et al.): on
// the instances the paper reports, the LP returned integral solutions,
// i.e. the true optimum — which this routine computes directly. The key
// structural fact makes it feasible: an optimal partition never groups
// items from different positive-edge connected components (splitting such
// a group can only increase the objective), so the search decomposes into
// independent components, each solved exactly by branch-and-bound when its
// size is at most maxComponent (fallback: pivot + local search, flagged
// via Result.Exact=false).
//
// Serial entry point: ExactWorkers with one worker.
func Exact(n int, pf score.PairFunc, edges []Edge, maxComponent int) Result {
	return ExactWorkers(n, pf, edges, maxComponent, 1)
}

// ExactWorkers is Exact with one task per positive-edge component spread
// over a worker pool (workers <= 0 means all CPUs, 1 is serial) — the
// components are independent subproblems, which is exactly why the
// decomposition makes the exact objective feasible in the first place.
// pf must be safe for concurrent use when workers != 1 (a score.Matrix
// lookup is; a raw closure over a non-shared cache is not). Components
// are solved into per-component slots and concatenated in sorted-root
// order, so the partition is identical at every worker count.
func ExactWorkers(n int, pf score.PairFunc, edges []Edge, maxComponent, workers int) Result {
	return ExactWorkersObs(n, pf, edges, maxComponent, workers, nil)
}

// ExactWorkersObs is ExactWorkers with an optional observability sink.
// When sink is non-nil it receives the phase wall time
// (cluster.exact.seconds), the component count (cluster.exact.components
// counter), the number of oversized components that fell back to
// pivot+local-search (cluster.exact.fallbacks counter), and the largest
// component size (cluster.exact.largest_component gauge). The sink is
// observational only: the partition is byte-identical with or without
// it, at every worker count.
func ExactWorkersObs(n int, pf score.PairFunc, edges []Edge, maxComponent, workers int, sink obs.Sink) Result {
	_, ph := obs.Start(context.Background(), sink, "cluster.exact")
	if maxComponent <= 0 {
		maxComponent = 18
	}
	// Positive-edge components.
	d := dsu.New(n)
	for _, e := range edges {
		if pf(e.A, e.B) > 0 {
			d.Union(e.A, e.B)
		}
	}
	compItems := map[int][]int{}
	for v := 0; v < n; v++ {
		r := d.Find(v)
		compItems[r] = append(compItems[r], v)
	}
	// Candidate edges grouped per component (both endpoints always end up
	// in one component or score <= 0 across; cross edges can be dropped —
	// they are never within a group of any partition we consider).
	compEdges := map[int][]Edge{}
	for _, e := range edges {
		if d.Find(e.A) == d.Find(e.B) {
			r := d.Find(e.A)
			compEdges[r] = append(compEdges[r], e)
		}
	}

	res := Result{Exact: true}
	roots := make([]int, 0, len(compItems))
	for r := range compItems {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	// Solve components in parallel, one result slot per component, then
	// fold the slots serially in sorted-root order (deterministic
	// reduction). approx[ci] marks components that fell back.
	parts := make([][][]int, len(roots))
	approx := make([]bool, len(roots))
	for _, r := range roots {
		sort.Ints(compItems[r])
	}
	parallel.For(workers, len(roots), func(ci int) {
		r := roots[ci]
		items := compItems[r]
		switch {
		case len(items) == 1:
			parts[ci] = [][]int{items}
		case len(items) <= maxComponent:
			parts[ci] = solveComponent(items, pf)
		default:
			approx[ci] = true
			parts[ci] = fallbackComponent(items, compEdges[r], pf)
		}
	})
	fallbacks := int64(0)
	for ci, r := range roots {
		if n := len(compItems[r]); n > res.LargestComponent {
			res.LargestComponent = n
		}
		if approx[ci] {
			res.Exact = false
			fallbacks++
		}
		res.Clusters = append(res.Clusters, parts[ci]...)
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i][0] < res.Clusters[j][0] })
	ph.Count("cluster.exact.components", int64(len(roots)))
	ph.Count("cluster.exact.fallbacks", fallbacks)
	ph.Gauge("cluster.exact.largest_component", float64(res.LargestComponent))
	ph.End()
	return res
}

// solveComponent finds the partition of items maximising Σ same-group
// P(i, j) by branch-and-bound over assignments in index order.
func solveComponent(items []int, pf score.PairFunc) [][]int {
	k := len(items)
	// Local pair matrix.
	p := make([][]float64, k)
	for i := range p {
		p[i] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := pf(items[i], items[j])
			p[i][j], p[j][i] = v, v
		}
	}
	// posSuffix[t] = Σ over pairs (a, b), a < b, with b >= t of
	// max(p[a][b], 0): an optimistic bound on what assigning the items
	// t, t+1, ... can still add (a pair's score is committed when its
	// larger endpoint is assigned). Recurrence: a pair enters at t == b.
	posSuffix := make([]float64, k+1)
	for t := k - 1; t >= 0; t-- {
		posSuffix[t] = posSuffix[t+1]
		for a := 0; a < t; a++ {
			if p[a][t] > 0 {
				posSuffix[t] += p[a][t]
			}
		}
	}

	best := -1.0 // any assignment scores >= 0 (all singletons = 0)
	var bestAssign []int
	assign := make([]int, k) // group id per item
	var groups [][]int
	var dfs func(v int, cur float64)
	dfs = func(v int, cur float64) {
		if cur+posSuffix[v] <= best {
			return
		}
		if v == k {
			if cur > best {
				best = cur
				bestAssign = append(bestAssign[:0], assign...)
			}
			return
		}
		// Try existing groups (and prune symmetric new-group choices by
		// only allowing one "new group" branch).
		for gi := range groups {
			delta := 0.0
			for _, u := range groups[gi] {
				delta += p[u][v]
			}
			groups[gi] = append(groups[gi], v)
			assign[v] = gi
			dfs(v+1, cur+delta)
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		groups = append(groups, []int{v})
		assign[v] = len(groups) - 1
		dfs(v+1, cur)
		groups = groups[:len(groups)-1]
	}
	dfs(0, 0)

	byGroup := map[int][]int{}
	for i, g := range bestAssign {
		byGroup[g] = append(byGroup[g], items[i])
	}
	out := make([][]int, 0, len(byGroup))
	gids := make([]int, 0, len(byGroup))
	for g := range byGroup {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	for _, g := range gids {
		sort.Ints(byGroup[g])
		out = append(out, byGroup[g])
	}
	return out
}

// fallbackComponent handles oversized components with pivot + local
// search, remapped to component-local indices.
func fallbackComponent(items []int, edges []Edge, pf score.PairFunc) [][]int {
	local := make(map[int]int, len(items))
	for i, v := range items {
		local[v] = i
	}
	le := make([]Edge, 0, len(edges))
	for _, e := range edges {
		le = append(le, Edge{A: local[e.A], B: local[e.B]})
	}
	lpf := func(i, j int) float64 { return pf(items[i], items[j]) }
	parts := Pivot(len(items), lpf, le, 1)
	parts = LocalSearch(len(items), lpf, le, parts, 10)
	out := make([][]int, len(parts))
	for i, c := range parts {
		out[i] = make([]int, len(c))
		for j, v := range c {
			out[i][j] = items[v]
		}
		sort.Ints(out[i])
	}
	return out
}
