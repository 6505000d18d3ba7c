package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"topkdedup/internal/index"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Options configures PrunedDedup.
type Options struct {
	// K is the TopK parameter (>= 1) — unless Threshold is set, when it
	// must be 0.
	K int
	// Threshold, when > 0, runs the §7.2 thresholded rank query instead
	// of TopK: every level prunes against M := Threshold, the §4.2 bound
	// scan never runs, and there is no exactly-K early stop. Exactly one
	// of K >= 1 and Threshold > 0 must be set.
	Threshold float64
	// PrunePasses is the number of exact upper-bound refinement passes
	// (default 2, the paper's choice).
	PrunePasses int
	// Workers bounds the worker pool used for predicate evaluation in the
	// bound-estimation and prune phases (the collapse is serial: Insert's
	// union-find is its schedule). <= 0 means all CPUs; 1 runs fully
	// serial. Results are identical at every worker count;
	// the predicates must be safe for concurrent Eval when Workers != 1
	// (the built-in domains are — they share a strsim.NewSharedCache).
	Workers int
	// Sink, when non-nil, receives the per-phase metrics and spans of
	// the run (see OBSERVABILITY.md for the name registry). Metrics are
	// observational only: results are byte-identical with or without a
	// sink, at every Workers count. nil (the default) is free.
	Sink obs.Sink
}

// check reports an Options that sets neither or both of K and Threshold.
func (o Options) check() error {
	if (o.K >= 1 && o.Threshold == 0) || (o.K == 0 && o.Threshold > 0) {
		return nil
	}
	return fmt.Errorf("core: want K >= 1 or Threshold > 0, got K = %d, Threshold = %g", o.K, o.Threshold)
}

// PrunedDedup runs Algorithm 2 of the paper over the dataset: for each
// predicate level (S_l, N_l) it collapses sure duplicates, estimates the
// lower bound M on the K-th group's weight, and prunes groups that cannot
// reach M. It stops early when exactly K groups survive (they are then
// the exact answer). The surviving groups — typically a tiny fraction of
// the input — are what the final expensive deduplication (criterion P +
// R-best search, §5) operates on. With Options.Threshold set, M is the
// threshold at every level instead (§7.2's thresholded rank query).
func PrunedDedup(d *records.Dataset, levels []predicate.Level, opts Options) (*Result, error) {
	return PrunedDedupCtx(context.Background(), d, levels, opts)
}

// PrunedDedupCtx is PrunedDedup under a context. When ctx carries a
// trace span (see internal/obs), every level and phase records child
// spans annotated with the counts the EXPLAIN report is built from; an
// untraced context adds one context lookup per phase and nothing else.
func PrunedDedupCtx(ctx context.Context, d *records.Dataset, levels []predicate.Level, opts Options) (*Result, error) {
	if d.Len() == 0 {
		if err := opts.check(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return PrunedDedupFromCtx(ctx, d, singletonGroups(d), levels, opts)
}

// PreparedLevel is the part of one level of Algorithm 2 that does not
// depend on K: the groups collapsed under the level's sufficient
// predicate and put in canonical order, the collapse's counts, and the
// index of the collapsed groups' representatives under the necessary
// predicate's blocking keys that the prune step walks. The index is
// built on first use and kept, so a level prepared once serves any
// number of queries, concurrently — stream.Snapshot holds one for level
// 1 of its epoch. Nothing reachable from a PreparedLevel is written
// after it is computed.
type PreparedLevel struct {
	d     *records.Dataset
	level predicate.Level

	groups []Group
	before int // the number of items the collapse started from
	evals  int64

	block sync.Once
	ix    *index.IDIndex
}

// PrepareLevel returns the level's K-independent work given its finished
// collapse: groups are the closure of level.Sufficient over before
// starting items (each an established group of duplicates), in canonical
// order (SortGroupsByWeight), found with evals evaluations of the one
// closure kernel (Insert). The streaming accumulator hands its
// maintained closure in this way, so a served level 1 is batch's,
// counts included. groups is only read.
func PrepareLevel(d *records.Dataset, groups []Group, level predicate.Level, before int, evals int64) *PreparedLevel {
	return &PreparedLevel{d: d, level: level, groups: groups, before: before, evals: evals}
}

// index returns BlockReps over the collapsed groups and the necessary
// predicate, built on first use and then only read. The §4.2 bound scan
// asks for it first (a TopK query's scan walks its buckets for each
// rank's earlier candidates) and the prune step walks it next; on a
// served epoch's level 1 every K's query reads the one build. A level
// whose bound comes out at zero still built it for the scan; only one
// with no rank to scan (every group at the minimum weight) never asks.
func (pl *PreparedLevel) index() *index.IDIndex {
	pl.block.Do(func() { pl.ix = BlockReps(pl.d, pl.groups, pl.level.Necessary, nil) })
	return pl.ix
}

// PrunedDedupFromCtx runs Algorithm 2 starting from an existing grouping
// (each group's members must already be established duplicates), with
// the same optional tracing as PrunedDedupCtx. groups is only read.
func PrunedDedupFromCtx(ctx context.Context, d *records.Dataset, groups []Group, levels []predicate.Level, opts Options) (*Result, error) {
	return prunedDedup(ctx, d, groups, nil, levels, opts)
}

// PrunedDedupPreparedCtx is PrunedDedupFromCtx with level 1's collapse
// handed in done (PrepareLevel with levels[0]) — the entry point for
// incremental/streaming use: stream.Snapshot prepares its maintained
// closure once per epoch, so a query never collapses level 1 and pays
// its N1 blocking only if no earlier query of the epoch did. The
// result, LevelStats eval counts included, is the one PrunedDedupFromCtx
// gives from the groups the collapse started from; only the sink's
// core.collapse.* metrics differ, which count a collapse where it ran.
// The result's Groups may share storage with first and must be treated
// as read-only.
func PrunedDedupPreparedCtx(ctx context.Context, d *records.Dataset, first *PreparedLevel, levels []predicate.Level, opts Options) (*Result, error) {
	return prunedDedup(ctx, d, nil, first, levels, opts)
}

// prunedDedup is Algorithm 2 from groups, or from level 1 already
// collapsed when first is non-nil.
func prunedDedup(ctx context.Context, d *records.Dataset, groups []Group, first *PreparedLevel, levels []predicate.Level, opts Options) (*Result, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("core: at least one predicate level required")
	}
	passes := opts.PrunePasses
	if passes <= 0 {
		passes = 2
	}
	total := d.Len()
	if total == 0 {
		return &Result{}, nil
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(total) }

	sink := opts.Sink
	res := &Result{TotalRecords: total}
	lv := first
	for li, level := range levels {
		stats := LevelStats{Level: li + 1}
		ctxL, lp := obs.Start(ctx, nil, "core.level")
		lp.Attr("level", float64(li+1))

		// A served level 1 arrives collapsed: its phase reports the
		// collapse's counts to the trace only, since core.collapse.*
		// count the collapses that ran.
		csink := sink
		if lv != nil {
			csink = nil
		}
		_, cp := obs.Start(ctxL, csink, "core.collapse")
		if lv == nil {
			merged, evals := Collapse(d, groups, level.Sufficient)
			if !slices.IsSortedFunc(merged, CompareGroups) {
				if len(merged) == len(groups) {
					// Nothing merged, so Collapse handed the input
					// back, and that is not ours to write.
					merged = slices.Clone(merged)
				}
				sortGroupsByWeight(merged)
			}
			lv = PrepareLevel(d, merged, level, len(groups), evals)
		}
		groups = lv.groups
		stats.CollapseEvals = lv.evals
		cp.Count("core.collapse.evals", stats.CollapseEvals)
		cp.Attr("hits", float64(lv.before-len(groups)))
		cp.Attr("groups_before", float64(lv.before))
		cp.Observe("core.collapse.groups", float64(len(groups)))
		stats.CollapseTime = cp.End()
		stats.NGroups = len(groups)
		stats.NGroupsPct = pct(len(groups))

		m := opts.Threshold
		if m == 0 {
			stats.MRank, m, stats.BoundEvals, _, stats.BoundTime = estimateLowerBound(ctxL, sink, d, groups, level.Necessary, lv.index, opts.K, opts.Workers)
		}
		stats.LowerBound = m

		groups, stats.PruneEvals, _, stats.PruneTime = pruneCtx(ctxL, d, groups, level.Necessary, lv.index, m, passes, opts.Workers, sink)
		stats.Survivors = len(groups)
		stats.SurvivorsPct = pct(len(groups))

		res.Stats = append(res.Stats, stats)
		obs.Count(sink, "core.levels", 1)
		lp.End()
		// Canonical order already: the level sorted its groups and
		// pruning keeps the survivors in input order.
		res.Groups = groups
		if opts.K > 0 && len(groups) == opts.K {
			res.ExactlyK = true
			obs.Count(sink, "core.exactly_k", 1)
			break
		}
		lv = nil
	}
	return res, nil
}
