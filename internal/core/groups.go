// Package core implements the paper's central contribution: the
// PrunedDedup algorithm (§4, Algorithm 2). Records are successively
// collapsed with sufficient predicates and pruned with necessary
// predicates so that only tuples that can still participate in the K
// largest duplicate groups survive to the expensive final deduplication.
package core

import (
	"cmp"
	"slices"
	"time"

	"topkdedup/internal/index"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Group is a set of records established to be duplicates of each other
// (by the transitive closure of sufficient predicates), treated as a unit
// by the later phases. The representative stands in for the group when
// predicates are evaluated — correct by the collapse-safety argument of
// §4.1.
type Group struct {
	// Rep is the representative record ID.
	Rep int
	// Members are the record IDs in the group (Rep included).
	Members []int
	// Weight is the aggregate weight of the members — the "size" the
	// TopK count query ranks by (plain counts use weight 1 per record).
	Weight float64
}

// Size returns the number of member records.
func (g *Group) Size() int { return len(g.Members) }

// BindReps binds p to the groups' representatives (predicate.P.Bound):
// the returned evaluator takes two indices into groups and equals
// p.Eval on their representative records. Every phase that compares
// groups binds once and then calls only this — the per-pair cost is the
// predicate's match on two precomputed signatures.
//
// use, when non-nil, marks the groups the phase can compare at all
// (groups sharing a blocking key with another, groups still alive);
// only those get a signature, so a phase that evaluates few pairs does
// not pay for every group, and the evaluator must not be asked about an
// unmarked one. nil binds every group.
func BindReps(d *records.Dataset, groups []Group, p predicate.P, use []bool) func(i, j int) bool {
	reps, slot := usedReps(d, groups, use)
	eval := p.Bound(reps)
	if slot == nil {
		return eval
	}
	return func(i, j int) bool { return eval(int(slot[i]), int(slot[j])) }
}

// BindRepsCounted is BindReps for a phase whose pairs come from a
// counted candidate walk over BlockReps' index (the prune pass): the
// evaluator's third argument is the number of blocking keys the two
// representatives share (predicate.P.BoundCounted). A predicate with a
// shared-count form answers from it; any other ignores it, so the
// caller runs one loop either way. Phases with no count to give —
// collapse, the bound scan, the rank queries, the final-phase gate —
// stay on BindReps.
func BindRepsCounted(d *records.Dataset, groups []Group, p predicate.P, use []bool) func(i, j, shared int) bool {
	reps, slot := usedReps(d, groups, use)
	eval := p.BoundCounted(reps)
	if slot == nil {
		return eval
	}
	return func(i, j, shared int) bool { return eval(int(slot[i]), int(slot[j]), shared) }
}

// usedReps gathers the representative records of the groups use marks
// (all of them when use is nil) and, unless use is nil, the map from
// group index to position among them.
func usedReps(d *records.Dataset, groups []Group, use []bool) (reps []*records.Record, slot []int32) {
	reps = make([]*records.Record, 0, len(groups))
	if use == nil {
		for i := range groups {
			reps = append(reps, d.Recs[groups[i].Rep])
		}
		return reps, nil
	}
	slot = make([]int32, len(groups))
	for i := range groups {
		if use[i] {
			slot[i] = int32(len(reps))
			reps = append(reps, d.Recs[groups[i].Rep])
		}
	}
	return reps, slot
}

// BlockReps indexes the groups' representatives by p's blocking keys
// (predicate.P.Block): items of the returned index are indices into
// groups, the same addressing as BindReps' evaluator. It is the one
// place representative keys are interned and indexed — collapse, the
// bound scan, prune, the final scoring phase, the rank queries and the
// experiment baselines all take their candidates from it. dst is a
// previous index's KeyIDs, whose id buffer Block reuses; nil allocates.
func BlockReps(d *records.Dataset, groups []Group, p predicate.P, dst [][]uint32) *index.IDIndex {
	reps := make([]*records.Record, len(groups))
	for i := range groups {
		reps[i] = d.Recs[groups[i].Rep]
	}
	return p.Block(reps, dst)
}

// LevelStats reports one pruning iteration, matching the columns of the
// paper's Figures 2-4.
type LevelStats struct {
	// Level is the 1-based predicate-level index.
	Level int
	// NGroups is n: the number of groups after collapsing.
	NGroups int
	// NGroupsPct is n as a percentage of the original record count.
	NGroupsPct float64
	// M is the rank m at which K distinct groups are guaranteed (0 when
	// the guarantee was never reached).
	MRank int
	// LowerBound is M: the minimum weight a group must be able to reach
	// to avoid pruning (0 disables pruning).
	LowerBound float64
	// Survivors is n′: the number of groups after pruning.
	Survivors int
	// SurvivorsPct is n′ as a percentage of the original record count.
	SurvivorsPct float64
	// Predicate evaluation counts (diagnostics for the cost model).
	CollapseEvals, BoundEvals, PruneEvals int64
	// Wall-clock per phase.
	CollapseTime, BoundTime, PruneTime time.Duration
}

// Result is the output of PrunedDedup.
type Result struct {
	// Groups are the surviving collapsed groups in decreasing weight.
	Groups []Group
	// Stats has one entry per executed predicate level.
	Stats []LevelStats
	// ExactlyK reports the early exit of Algorithm 2 step 7: exactly K
	// groups survive, so they are the exact TopK answer with no further
	// deduplication needed.
	ExactlyK bool
	// TotalRecords is the size of the input dataset.
	TotalRecords int
}

// singletonGroups wraps every record of the dataset in its own group.
func singletonGroups(d *records.Dataset) []Group {
	groups := make([]Group, d.Len())
	for i, r := range d.Recs {
		groups[i] = Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
	}
	return groups
}

// SingletonGroups wraps every record of the dataset in its own group —
// the level-0 grouping Algorithm 2 starts from.
func SingletonGroups(d *records.Dataset) []Group { return singletonGroups(d) }

// SortGroupsByWeight sorts groups by decreasing weight with ties broken
// on ascending representative ID — the canonical rank order every phase
// of PrunedDedup relies on.
func SortGroupsByWeight(groups []Group) { sortGroupsByWeight(groups) }

// sortGroupsByWeight sorts groups by decreasing weight; ties break on
// representative ID for determinism — a total order (no two groups share
// a representative), so the result does not depend on the input order.
func sortGroupsByWeight(groups []Group) { slices.SortFunc(groups, CompareGroups) }

// CompareGroups is the canonical rank order as a comparison for
// slices.SortFunc: weight descending, then representative ID ascending.
func CompareGroups(a, b Group) int {
	if a.Weight != b.Weight {
		if a.Weight > b.Weight {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Rep, b.Rep)
}

// TruthGroups collapses a labelled dataset by its ground-truth labels —
// the reference answer used by evaluation and tests. Unlabelled records
// become singletons. Groups come back sorted by decreasing weight.
func TruthGroups(d *records.Dataset) []Group {
	byLabel := make(map[string][]int)
	var unlabelled []int
	for _, r := range d.Recs {
		if r.Truth == "" {
			unlabelled = append(unlabelled, r.ID)
			continue
		}
		byLabel[r.Truth] = append(byLabel[r.Truth], r.ID)
	}
	groups := make([]Group, 0, len(byLabel)+len(unlabelled))
	for _, members := range byLabel {
		g := Group{Rep: members[0], Members: members}
		for _, id := range members {
			g.Weight += d.Recs[id].Weight
		}
		groups = append(groups, g)
	}
	for _, id := range unlabelled {
		groups = append(groups, Group{Rep: id, Members: []int{id}, Weight: d.Recs[id].Weight})
	}
	sortGroupsByWeight(groups)
	return groups
}
