package core

import (
	"topkdedup/internal/dsu"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Insert is the one step of the sufficient closure (§4.1: the collapse is
// the transitive closure of S): it inserts item i into uf, whose items
// below i are already inserted. i is evaluated against every earlier item
// j that shares one of its keys and is not yet in i's component, each
// candidate once, and a match unions them. match(j, i) is S on the two
// items (earlier first); bucket(k) lists key k's items ascending, and the
// walk stops at the first item ≥ i, so a bucket may hold later items too.
// seen is a per-item stamp owned by the caller, one slot per item, never
// holding i+1 before this call. merged, when non-nil, is called after
// each union with the two roots it joined and the surviving one. Returns
// the number of evaluations.
//
// Both closures call it: Collapse, item by item over its index, and the
// streaming accumulator (internal/stream) record by record as they
// arrive. The union-find state before each step, the walk and so the
// eval count are then the same for the same item order, so a served
// level 1 is batch's collapse, counts included.
func Insert(uf *dsu.DSU, seen []int32, i int, keys []uint32, bucket func(k uint32) []int32, match func(j, i int) bool, merged func(ri, rj, root int)) (evals int64) {
	stamp := int32(i + 1)
	for _, k := range keys {
		for _, j := range bucket(k) {
			if int(j) >= i {
				break
			}
			if seen[j] == stamp {
				continue
			}
			seen[j] = stamp
			ri, rj := uf.Find(i), uf.Find(int(j))
			if ri == rj {
				continue
			}
			evals++
			if match(int(j), i) {
				uf.Union(ri, rj)
				if merged != nil {
					merged(ri, rj, uf.Find(ri))
				}
			}
		}
	}
	return evals
}

// Collapse merges groups connected by the transitive closure of the
// sufficient predicate s, evaluated on group representatives (§4.1:
// collapsing on representatives is safe because all members are already
// sure duplicates and "duplicate-of" is transitive). It inserts the
// groups one by one in input order (Insert) over the index of their
// representatives' blocking keys, serially: the union-find decides which
// candidates still need an evaluation, so the order is the schedule.
//
// Returns the merged groups, ordered by their first input group (groups
// itself when nothing merged; it is never written), and the number of
// predicate evaluations performed. Every evaluation that holds is a
// union, so the hit count is len(groups) minus the groups returned.
func Collapse(d *records.Dataset, groups []Group, s predicate.P) ([]Group, int64) {
	n := len(groups)
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
	seen := make([]int32, n)
	var evals int64
	for i, keys := range ix.KeyIDs() {
		if paired[i] {
			evals += Insert(uf, seen, i, keys, ix.Bucket, eval, nil)
		}
	}
	if uf.Components() == n {
		return groups, evals // nothing merged
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
	return merged, evals
}

// CollapseWorkersHits is Collapse returning additionally the hit count
// (evaluations that held, len(groups) minus the groups returned). It is
// kept with its signature for the frozen benchmark harness
// (benchmark/batch.go); workers is unused, since the collapse is serial.
func CollapseWorkersHits(d *records.Dataset, groups []Group, s predicate.P, workers int) ([]Group, int64, int64) {
	merged, evals := Collapse(d, groups, s)
	return merged, evals, int64(len(groups) - len(merged))
}
