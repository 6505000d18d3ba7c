// Package rankquery implements the paper's §7 query extensions on top of
// the core pruning machinery: the TopK rank query (only the ranked order
// of the K largest groups is wanted, enabling the extra "resolved group"
// pruning) and the thresholded rank query (all groups with weight above a
// user threshold T).
package rankquery

import (
	"context"
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

// RankResult is the output of FromPruned and ThresholdedRank.
type RankResult struct {
	// Entries are the surviving groups in decreasing weight with their
	// upper bounds and resolution status.
	Entries []Entry
	// PrunedStats carries the underlying PrunedDedup statistics.
	PrunedStats []core.LevelStats
	// ExtraPruned counts groups removed by the rank-specific resolved-
	// neighbour pruning beyond the standard TopK prune.
	ExtraPruned int
	// Settled reports that the ranking is fully determined: for FromPruned,
	// the first K entries are resolved; for ThresholdedRank, the §7.2
	// termination condition holds and Entries (all resolved) are the
	// exact answer.
	Settled bool
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
// greater than threshold T = opts.Threshold. It is Algorithm 2 with the
// lower bound fixed to T instead of the estimated M (core.Options'
// Threshold mode), finished by FromThreshold.
func ThresholdedRank(ctx context.Context, d *records.Dataset, levels []predicate.Level, opts core.Options) (*RankResult, error) {
	res, err := core.PrunedDedupCtx(ctx, d, levels, opts)
	if err != nil {
		return nil, err
	}
	return FromThreshold(d, levels, res, opts.Threshold), nil
}

// FromThreshold finishes the §7.2 thresholded rank query from a pruning
// run with core.Options.Threshold = t — the serving layer's path, which
// prunes from its epoch's prepared level 1. res must come from the same
// dataset and levels.
func FromThreshold(d *records.Dataset, levels []predicate.Level, res *core.Result, t float64) *RankResult {
	rr := resolveEntries(d, res.Groups, levels[len(levels)-1].Necessary, t)
	rr.PrunedStats = res.Stats
	rr.Settled = settledThreshold(rr.Entries, t)
	return rr
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
	if len(groups) == 0 {
		return &RankResult{}
	}
	// Canonicalise the order first: the upper bounds below are floating
	// sums over neighbour weights, so the summation order must not depend
	// on how the caller ordered the survivors.
	groups = append([]core.Group(nil), groups...)
	core.SortGroupsByWeight(groups)
	eval := core.BindReps(d, groups, n, nil)
	adj := make([][]int, len(groups))
	core.BlockReps(d, groups, n, nil).ForEachPair(func(i, j int) bool {
		if eval(i, j) {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
		return true
	})
	return resolve(groups, adj, m)
}

// resolve is resolveEntries over canonically ordered groups and their
// N-adjacency lists (each pair once per side, no self loops). Weights
// must not be negative, so every upper bound u[g] is at least w[g].
func resolve(groups []core.Group, adj [][]int, m float64) *RankResult {
	ng := len(groups)
	w := make([]float64, ng)
	u := make([]float64, ng)
	for i := range groups {
		// Neighbour discovery order follows the predicate's key order;
		// sort so the floating sum below always accumulates in the
		// canonical group order.
		sort.Ints(adj[i])
		w[i] = groups[i].Weight
		u[i] = w[i]
		for _, j := range adj[i] {
			u[i] += groups[j].Weight
		}
	}
	// Resolved: no ranking conflict with a non-neighbour g — one whose
	// interval [w[g], u[g]] overlaps j's, w[j] < u[g] && w[g] < u[j] —
	// and no neighbour can form a >= M group without j. Overlaps are
	// counted on sorted copies: the groups with w[g] < u[j], less those
	// with u[g] <= w[j] — which, as w <= u, is all of the latter except
	// the flat groups (w == u) at weight w[j] when j is flat too. Then j
	// itself and its neighbours are taken back out.
	ws, us := slices.Clone(w), slices.Clone(u)
	slices.Sort(ws)
	slices.Sort(us)
	flat := map[float64]int{}
	for g := range w {
		if w[g] == u[g] {
			flat[w[g]]++
		}
	}
	resolved := make([]bool, ng)
	for j := range groups {
		overlap, _ := slices.BinarySearch(ws, u[j])
		overlap -= sort.Search(ng, func(i int) bool { return us[i] > w[j] })
		if w[j] == u[j] {
			overlap += flat[w[j]]
		} else {
			overlap-- // j overlaps itself
		}
		ok := true
		for _, g := range adj[j] {
			if w[j] < u[g] && w[g] < u[j] {
				overlap--
			}
			if u[g]-w[j] >= m {
				ok = false
			}
		}
		resolved[j] = ok && overlap == 0
	}
	// Prune: groups below M that are not adjacent to any unresolved group
	// whose bound still reaches M play no further role.
	rr := &RankResult{}
	for g := range groups {
		keep := w[g] >= m || (!resolved[g] && u[g] >= m)
		for _, i := range adj[g] {
			if keep {
				break
			}
			keep = !resolved[i] && u[i] >= m
		}
		if !keep {
			rr.ExtraPruned++
			continue
		}
		rr.Entries = append(rr.Entries, Entry{Group: groups[g], Upper: u[g], Resolved: resolved[g]})
	}
	return rr
}
