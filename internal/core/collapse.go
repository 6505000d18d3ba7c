package core

import (
	"topkdedup/internal/dsu"
	"topkdedup/internal/parallel"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// collapseChunk is how many candidate pairs are buffered before a
// verify-and-merge flush. The chunk boundary is what makes the parallel
// schedule deterministic: pairs already connected at the start of a
// chunk are filtered without evaluation, the rest are verified (in
// parallel when workers > 1), and the resulting merges apply serially in
// enumeration order — so the evaluation set, the eval counter, and the
// union sequence depend only on the chunk size, never on the worker
// count.
const collapseChunk = 4096

// Collapse merges groups connected by the transitive closure of the
// sufficient predicate s, evaluated on group representatives (§4.1:
// collapsing on representatives is safe because all members are already
// sure duplicates and "duplicate-of" is transitive). Candidate pairs come
// from the predicate's blocking keys; the union-find short-circuits pairs
// already connected at chunk granularity, so redundant pairs cost a find
// (plus, at most, one extra evaluation when the connecting merge landed
// within the same chunk).
//
// Returns the merged groups (unsorted) and the number of predicate
// evaluations performed. Serial entry point: CollapseWorkers with one
// worker.
func Collapse(d *records.Dataset, groups []Group, s predicate.P) ([]Group, int64) {
	return CollapseWorkers(d, groups, s, 1)
}

// CollapseWorkers is Collapse with predicate verification spread over a
// worker pool (workers <= 0 means all CPUs, 1 is serial). s.Eval must be
// safe for concurrent use when workers != 1. The result — groups, group
// membership, and the eval counter — is identical for every worker
// count.
func CollapseWorkers(d *records.Dataset, groups []Group, s predicate.P, workers int) ([]Group, int64) {
	merged, evals, _ := CollapseWorkersHits(d, groups, s, workers)
	return merged, evals
}

// CollapseWorkersHits is CollapseWorkers returning additionally the
// sufficient-predicate hit count — how many evaluations returned true
// (and so contributed a union). Hits, like evals, are deterministic at
// every worker count; the EXPLAIN layer reports them per level.
func CollapseWorkersHits(d *records.Dataset, groups []Group, s predicate.P, workers int) ([]Group, int64, int64) {
	n := len(groups)
	// The pair walk below enumerates in the index's fixed order, so chunk
	// boundaries — and with them the eval counter — are identical run to
	// run.
	ix := BlockReps(d, groups, s, nil)
	// Only a group sharing a bucket with another can appear in a pair.
	paired := make([]bool, n)
	for i, ids := range ix.KeyIDs() {
		for _, k := range ids {
			if len(ix.Bucket(k)) > 1 {
				paired[i] = true
				break
			}
		}
	}
	eval := BindReps(d, groups, s, paired)
	uf := dsu.New(n)
	var evals, hits int64

	type pair struct{ a, b int32 }
	buf := make([]pair, 0, collapseChunk)
	todo := make([]int32, 0, collapseChunk) // indices into buf needing evaluation
	verdict := make([]bool, collapseChunk)
	flush := func() {
		// Filter: pairs already connected need no evaluation. This runs
		// before any of the chunk's merges, so it is independent of the
		// worker count.
		todo = todo[:0]
		for t, p := range buf {
			if !uf.Same(int(p.a), int(p.b)) {
				todo = append(todo, int32(t))
			}
		}
		evals += int64(len(todo))
		// Verify in parallel; each slot is owned by one index.
		parallel.For(workers, len(todo), func(k int) {
			p := buf[todo[k]]
			verdict[k] = eval(int(p.a), int(p.b))
		})
		// Merge serially in enumeration order — the deterministic
		// reduction that keeps the union-find state identical at every
		// worker count.
		for k, t := range todo {
			if verdict[k] {
				hits++
				p := buf[t]
				uf.Union(int(p.a), int(p.b))
			}
		}
		buf = buf[:0]
	}
	ix.ForEachPair(func(i, j int) bool {
		buf = append(buf, pair{int32(i), int32(j)})
		if len(buf) == collapseChunk {
			flush()
		}
		return true
	})
	flush()

	if uf.Components() == n {
		return groups, evals, hits // nothing merged
	}
	merged := make([]Group, 0, uf.Components())
	for _, members := range uf.GroupSlices() {
		if len(members) == 1 {
			merged = append(merged, groups[members[0]])
			continue
		}
		// Representative: the member group with the largest weight, so
		// later predicate evaluations see the most established rendering.
		best := members[0]
		g := Group{}
		for _, gi := range members {
			g.Weight += groups[gi].Weight
			g.Members = append(g.Members, groups[gi].Members...)
			if groups[gi].Weight > groups[best].Weight {
				best = gi
			}
		}
		g.Rep = groups[best].Rep
		merged = append(merged, g)
	}
	return merged, evals, hits
}
