// Package shard executes PrunedDedup (paper §4, Algorithm 2) over S
// canopy-closed parts of one dataset and proves the answer unchanged: for
// every shard count the surviving groups, their order, the per-level
// lower bounds M, and the ExactlyK early exit are byte-identical to the
// single-machine pipeline in internal/core. It is the end-to-end S-part
// case of core.ReplayBound, kept as that proof (and timed by topkbench
// -exp shard and the benchmark harness); nothing serves queries through
// it — SHARDING.md has the measurements that decided that.
//
// Three pieces compose:
//
//   - Split partitions the initial groups by blocking key with a
//     canopy-closure pass: groups sharing any blocking key of any
//     level's sufficient or necessary predicate are unioned, and whole
//     closure components are hash-assigned to shards. Because collapse
//     merges only reshuffle representatives within the initial
//     representative set, no candidate pair of any later phase ever
//     crosses a component — shards are independent at every level.
//
//   - Worker runs one shard's share of each phase on the core primitives
//     (core.CollapseWorkers, core.BoundScanner, core.Pruner), holding
//     per-level state between coordinator calls.
//
//   - The coordinator (Exchange) merges per-shard group metadata into the
//     global rank order and runs the bound exchange, which is
//     core.ReplayBound — the single-machine scan's own loop — over one
//     part per shard: per block, shards report local greedy-independence
//     verdicts and the loop replays them in global rank order through
//     one graph.PrefixController — folding per-shard CPN bounds (which
//     sum exactly across canopy components) whenever the cheap bound
//     stalls — so the global rank m, the bound M and the evaluations
//     counted come out exactly as on a single machine. Pruning then
//     proceeds in coordinator-driven rounds: every round each shard runs
//     one exact Jacobi refinement pass with the broadcast global M and
//     reports how many groups died; the coordinator stops when no
//     shard's alive set shrank, which is precisely the single-machine
//     stop rule evaluated globally.
package shard

import (
	"context"
	"fmt"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Options configures a sharded PrunedDedup run.
type Options struct {
	// K is the TopK parameter (required, >= 1).
	K int
	// Shards is the shard count S (values < 1 run as a single shard).
	Shards int
	// PrunePasses caps the exact refinement rounds per level (default 2,
	// matching core.Options.PrunePasses).
	PrunePasses int
	// Workers bounds each shard worker's pool for predicate evaluation
	// (<= 0 means all CPUs); the shards share the process pool.
	Workers int
	// Sink, when non-nil, receives the core.prune.* metrics the workers'
	// pruners emit. Observational only.
	Sink obs.Sink
}

// Run executes the full sharded pipeline: it partitions the initial
// grouping with Split, starts one Worker per shard over the shared
// dataset, and drives Exchange. groups may be nil to start from
// singletons. The returned result is byte-identical to
// core.PrunedDedupFromCtx on the same inputs at every shard count;
// RunStats reports the coordination work.
func Run(d *records.Dataset, groups []core.Group, levels []predicate.Level, opts Options) (*core.Result, *RunStats, error) {
	return RunCtx(context.Background(), d, groups, levels, opts)
}

// RunCtx is Run under a context. When ctx carries a trace span (see
// internal/obs), each level's bound scan records a shard.bound span and
// the workers' prune passes their core.prune.pass spans; nothing in the
// run blocks on ctx.
func RunCtx(ctx context.Context, d *records.Dataset, groups []core.Group, levels []predicate.Level, opts Options) (*core.Result, *RunStats, error) {
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("shard: K must be >= 1, got %d", opts.K)
	}
	if len(levels) == 0 {
		return nil, nil, fmt.Errorf("shard: at least one predicate level required")
	}
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	if d.Len() == 0 {
		return &core.Result{}, &RunStats{Shards: s}, nil
	}
	if groups == nil {
		groups = core.SingletonGroups(d)
	}
	parts := Split(d, groups, levels, s)
	ws := make([]*Worker, len(parts.Parts))
	for i, part := range parts.Parts {
		ws[i] = NewWorker(d, part.Groups, levels, opts)
	}
	res, rs, err := Exchange(ctx, ws, len(levels), d.Len(), opts)
	rs.Components = parts.Components
	return res, rs, err
}
