// Package rankquery implements the paper's §7 query extensions on top of
// the core pruning machinery: the TopK rank query (only the ranked order
// of the K largest groups is wanted, enabling the extra "resolved group"
// pruning) and the thresholded rank query (all groups with weight above a
// user threshold T).
package rankquery

import (
	"fmt"
	"slices"
	"sort"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Entry pairs a surviving group with the upper bound on the weight of the
// largest duplicate group that could contain it.
type Entry struct {
	Group core.Group
	Upper float64
	// Resolved reports that the entry has no ranking conflict with any
	// other surviving group (§7.1's resolved condition).
	Resolved bool
}

// RankResult is the output of TopKRank and ThresholdedRank.
type RankResult struct {
	// Entries are the surviving groups in decreasing weight with their
	// upper bounds and resolution status.
	Entries []Entry
	// PrunedStats carries the underlying PrunedDedup statistics.
	PrunedStats []core.LevelStats
	// ExtraPruned counts groups removed by the rank-specific resolved-
	// neighbour pruning beyond the standard TopK prune.
	ExtraPruned int
	// Settled reports that the ranking is fully determined: for TopKRank,
	// the first K entries are resolved; for ThresholdedRank, the §7.2
	// termination condition holds and Entries (all resolved) are the
	// exact answer.
	Settled bool
}

// TopKRank answers the TopK rank query of §7.1: the ranked order of the K
// largest groups, each identified by a canonical member, without needing
// exact sizes. All TopK pruning applies, plus neighbours of resolved
// groups are discarded when they cannot influence any unresolved group.
func TopKRank(d *records.Dataset, levels []predicate.Level, opts core.Options) (*RankResult, error) {
	res, err := core.PrunedDedup(d, levels, opts)
	if err != nil {
		return nil, err
	}
	return FromPruned(d, levels, res, opts.K), nil
}

// FromPruned finishes the §7.1 TopK rank query from an externally
// produced pruning result — the path the serving layer takes, which
// prunes once per (epoch, K) for /topk and /rank alike. res must come
// from the same dataset and levels.
func FromPruned(d *records.Dataset, levels []predicate.Level, res *core.Result, k int) *RankResult {
	lastN := levels[len(levels)-1].Necessary
	var m float64
	if len(res.Stats) > 0 {
		m = res.Stats[len(res.Stats)-1].LowerBound
	}
	rr := resolveEntries(d, res.Groups, lastN, m)
	rr.PrunedStats = res.Stats
	// Settled when the top K entries are resolved and distinct in rank.
	rr.Settled = len(rr.Entries) >= k
	for i := 0; i < k && i < len(rr.Entries); i++ {
		if !rr.Entries[i].Resolved {
			rr.Settled = false
			break
		}
	}
	return rr
}

// ThresholdedRank answers §7.2: a ranked list of all groups of weight
// greater than threshold T. It reuses PrunedDedup with the lower bound
// fixed to T instead of the estimated M.
func ThresholdedRank(d *records.Dataset, levels []predicate.Level, t float64, prunePasses int) (*RankResult, error) {
	if t <= 0 {
		return nil, fmt.Errorf("rankquery: threshold must be positive, got %g", t)
	}
	groups := core.SingletonGroups(d)
	var stats []core.LevelStats
	for li, level := range levels {
		st := core.LevelStats{Level: li + 1, LowerBound: t}
		groups, st.CollapseEvals = core.Collapse(d, groups, level.Sufficient)
		core.SortGroupsByWeight(groups)
		st.NGroups = len(groups)
		st.NGroupsPct = pct(len(groups), d.Len())
		groups, st.PruneEvals = core.Prune(d, groups, level.Necessary, t, prunePasses)
		st.Survivors = len(groups)
		st.SurvivorsPct = pct(len(groups), d.Len())
		stats = append(stats, st)
	}
	core.SortGroupsByWeight(groups)
	lastN := levels[len(levels)-1].Necessary
	rr := resolveEntries(d, groups, lastN, t)
	rr.PrunedStats = stats
	rr.Settled = settledThreshold(rr.Entries, t)
	return rr, nil
}

// settledThreshold checks the §7.2 termination condition: there is a k
// such that the first k entries all have weight >= T and dominate the
// upper bound of everything after them, and all later groups are
// redundant. Since resolveEntries already pruned redundant groups, the
// check reduces to: every remaining entry with weight >= T is resolved
// and nothing below the threshold can reach it.
func settledThreshold(entries []Entry, t float64) bool {
	for _, e := range entries {
		if e.Group.Weight >= t {
			if !e.Resolved {
				return false
			}
		} else if e.Upper >= t {
			return false // could still cross the threshold by merging
		}
	}
	return true
}

// resolveEntries computes exact neighbour upper bounds over the surviving
// groups, marks resolved groups, and prunes neighbours of resolved groups
// that cannot influence any unresolved group (§7.1).
func resolveEntries(d *records.Dataset, groups []core.Group, n predicate.P, m float64) *RankResult {
	ng := len(groups)
	rr := &RankResult{}
	if ng == 0 {
		return rr
	}
	// Canonicalise the order first: the upper bounds below are floating
	// sums over neighbour weights, so the summation order must not depend
	// on how the caller ordered the survivors.
	groups = append([]core.Group(nil), groups...)
	core.SortGroupsByWeight(groups)
	eval := core.BindReps(d, groups, n, nil)
	adj := make([][]int, ng)
	core.BlockReps(d, groups, n, nil).ForEachPair(func(i, j int) bool {
		if eval(i, j) {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
		return true
	})
	u := make([]float64, ng)
	for i := range groups {
		// Neighbour discovery order follows the predicate's key order;
		// sort so the floating sum below always accumulates in the
		// canonical group order.
		sort.Ints(adj[i])
		u[i] = groups[i].Weight
		for _, j := range adj[i] {
			u[i] += groups[j].Weight
		}
	}
	// Resolved: no ranking conflict with non-neighbours, and no neighbour
	// can form a >= M group without it.
	resolved := make([]bool, ng)
	for j := range groups {
		ok := true
		isNbr := make(map[int]bool, len(adj[j]))
		for _, g := range adj[j] {
			isNbr[g] = true
		}
		for g := 0; g < ng && ok; g++ {
			if g == j {
				continue
			}
			if isNbr[g] {
				if u[g]-groups[j].Weight >= m {
					ok = false
				}
			} else {
				if !(groups[j].Weight >= u[g] || u[j] <= groups[g].Weight) {
					ok = false
				}
			}
		}
		resolved[j] = ok
	}
	// Prune: groups below M that are not adjacent to any unresolved group
	// whose bound still reaches M play no further role.
	keep := make([]bool, ng)
	for g := range groups {
		if groups[g].Weight >= m {
			keep[g] = true
			continue
		}
		if !resolved[g] {
			// keep only if it can matter on its own or via a live
			// unresolved neighbourhood
			keep[g] = u[g] >= m
		}
		for _, i := range adj[g] {
			if !resolved[i] && u[i] >= m {
				keep[g] = true
				break
			}
		}
	}
	for i := range groups {
		if !keep[i] {
			rr.ExtraPruned++
			continue
		}
		rr.Entries = append(rr.Entries, Entry{Group: groups[i], Upper: u[i], Resolved: resolved[i]})
	}
	slices.SortFunc(rr.Entries, func(a, b Entry) int { return core.CompareGroups(a.Group, b.Group) })
	return rr
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
