package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

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
	// collapse, bound-estimation, and prune phases. <= 0 means all CPUs;
	// 1 runs fully serial. Results are identical at every worker count;
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
// untraced context adds one nil check per phase and nothing else.
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
// predicate's blocking keys that the prune step walks. Both halves are
// computed on first use and kept, so a level prepared once serves any
// number of queries, concurrently — stream.Snapshot holds one for level
// 1 of its epoch. Nothing reachable from a PreparedLevel is written
// after it is computed, and the input groups are never written at all.
type PreparedLevel struct {
	d     *records.Dataset
	level predicate.Level

	collapse    sync.Once
	input       []Group // dropped once collapsed
	before      int     // len(input)
	groups      []Group
	evals, hits int64

	block sync.Once
	ix    *index.IDIndex
}

// PrepareLevel returns the level's K-independent work over groups (each
// group's members must already be established duplicates), to be
// computed on first use. groups is only read.
func PrepareLevel(d *records.Dataset, groups []Group, level predicate.Level) *PreparedLevel {
	return &PreparedLevel{d: d, level: level, input: groups}
}

// collapsed runs the sufficient-predicate collapse and the weight sort
// unless an earlier call did, and reports whether this call did the
// work — what decides whether its evaluations are counted as performed.
func (pl *PreparedLevel) collapsed(workers int) (fresh bool) {
	pl.collapse.Do(func() {
		fresh = true
		pl.before = len(pl.input)
		pl.groups, pl.evals, pl.hits = CollapseWorkersHits(pl.d, pl.input, pl.level.Sufficient, workers)
		pl.input = nil
		if !slices.IsSortedFunc(pl.groups, CompareGroups) {
			if len(pl.groups) == pl.before {
				// Nothing merged, so CollapseWorkersHits handed the
				// input back, and that is not ours to write.
				pl.groups = slices.Clone(pl.groups)
			}
			sortGroupsByWeight(pl.groups)
		}
	})
	return fresh
}

// index returns BlockReps over the collapsed groups and the necessary
// predicate, built on first use: a level whose bound comes out at zero
// prunes nothing and never asks.
func (pl *PreparedLevel) index() *index.IDIndex {
	pl.block.Do(func() { pl.ix = BlockReps(pl.d, pl.groups, pl.level.Necessary, nil) })
	return pl.ix
}

// PrunedDedupFromCtx runs Algorithm 2 starting from an existing grouping
// (each group's members must already be established duplicates), with
// the same optional tracing as PrunedDedupCtx. groups is only read.
func PrunedDedupFromCtx(ctx context.Context, d *records.Dataset, groups []Group, levels []predicate.Level, opts Options) (*Result, error) {
	var first *PreparedLevel
	if len(levels) > 0 { // else PrunedDedupPreparedCtx reports it
		first = PrepareLevel(d, groups, levels[0])
	}
	return PrunedDedupPreparedCtx(ctx, d, first, levels, opts)
}

// PrunedDedupPreparedCtx is PrunedDedupFromCtx with level 1 handed in
// prepared (PrepareLevel over d, the starting groups and levels[0]) —
// the entry point for incremental/streaming use: stream.Snapshot keeps
// one prepared level 1 per epoch, so a query pays its collapse and its
// blocking only if no earlier query of the epoch did. The result is the
// one PrunedDedupFromCtx gives on the same starting groups, LevelStats
// eval counts included; only the sink's core.collapse.* metrics differ,
// which count a collapse where it ran. The result's Groups may share
// storage with first and must be treated as read-only.
func PrunedDedupPreparedCtx(ctx context.Context, d *records.Dataset, first *PreparedLevel, levels []predicate.Level, opts Options) (*Result, error) {
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
		ctxL, spL := obs.StartChild(ctx, "core.level")
		spL.Attr("level", float64(li+1))

		start := time.Now()
		_, spC := obs.StartChild(ctxL, "core.collapse")
		fresh := lv.collapsed(opts.Workers)
		groups := lv.groups
		stats.CollapseEvals = lv.evals
		if spC != nil {
			spC.Attr("evals", float64(stats.CollapseEvals))
			spC.Attr("hits", float64(lv.hits))
			spC.Attr("groups_before", float64(lv.before))
			spC.Attr("groups_after", float64(len(groups)))
			spC.End()
		}
		stats.CollapseTime = time.Since(start)
		stats.NGroups = len(groups)
		stats.NGroupsPct = pct(len(groups))
		if fresh {
			obs.ObserveDuration(sink, "core.collapse", stats.CollapseTime)
			obs.Count(sink, "core.collapse.evals", stats.CollapseEvals)
			obs.Observe(sink, "core.collapse.groups", float64(stats.NGroups))
		}

		m := opts.Threshold
		if m == 0 {
			start = time.Now()
			stats.MRank, m, stats.BoundEvals, _ = EstimateLowerBoundCtx(ctxL, d, groups, level.Necessary, opts.K, opts.Workers)
			stats.BoundTime = time.Since(start)
			obs.ObserveDuration(sink, "core.bound", stats.BoundTime)
			obs.Count(sink, "core.bound.evals", stats.BoundEvals)
			obs.Gauge(sink, "core.bound.m_rank", float64(stats.MRank))
			obs.Gauge(sink, "core.bound.lower", m)
		}
		stats.LowerBound = m

		start = time.Now()
		groups, stats.PruneEvals, _ = pruneCtx(ctxL, d, groups, level.Necessary, lv.index, m, passes, opts.Workers, sink)
		stats.PruneTime = time.Since(start)
		stats.Survivors = len(groups)
		stats.SurvivorsPct = pct(len(groups))
		obs.ObserveDuration(sink, "core.prune", stats.PruneTime)
		obs.Count(sink, "core.prune.evals", stats.PruneEvals)
		obs.Observe(sink, "core.prune.survivors", float64(stats.Survivors))

		res.Stats = append(res.Stats, stats)
		obs.Count(sink, "core.levels", 1)
		spL.End()
		// Canonical order already: the level sorted its groups and
		// pruning keeps the survivors in input order.
		res.Groups = groups
		if opts.K > 0 && len(groups) == opts.K {
			res.ExactlyK = true
			obs.Count(sink, "core.exactly_k", 1)
			break
		}
		if li+1 < len(levels) {
			lv = PrepareLevel(d, groups, levels[li+1])
		}
	}
	return res, nil
}
