// Package shard executes PrunedDedup (paper §4, Algorithm 2) across S
// horizontal shards and proves the answer unchanged: for every shard
// count the surviving groups, their order, the per-level lower bounds M,
// and the ExactlyK early exit are byte-identical to the single-machine
// pipeline in internal/core.
//
// Three pieces compose (see SHARDING.md for the full protocol):
//
//   - Split partitions the initial groups by blocking key with a
//     canopy-closure pass: groups sharing any blocking key of any
//     level's sufficient or necessary predicate are unioned, and whole
//     closure components are hash-assigned to shards. Because collapse
//     merges only reshuffle representatives within the initial
//     representative set, no candidate pair of any later phase ever
//     crosses a component — shards are independent at every level.
//
//   - Worker runs one shard's share of each phase on the refactored core
//     primitives (core.CollapseWorkers, core.BoundScanner, core.Pruner),
//     holding per-level state between coordinator calls.
//
//   - The coordinator (Exchange) merges per-shard group metadata into the
//     global rank order and runs the bound-exchange protocol, which is
//     core.ReplayBound — the single-machine scan's own loop — over one
//     part per shard: per block, shards report local greedy-independence
//     verdicts and the loop replays them in global rank order through
//     one graph.PrefixController — folding per-shard CPN bounds (which
//     sum exactly across canopy components) whenever the cheap bound
//     stalls — so the global rank m, the bound M and the evaluations
//     counted come out exactly as on a single machine. Pruning then
//     proceeds in
//     coordinator-driven rounds: every round each shard runs one exact
//     Jacobi refinement pass with the broadcast global M and reports how
//     many groups died; the coordinator stops when no shard's alive set
//     shrank (TA-style early termination), which is precisely the
//     single-machine stop rule evaluated globally.
//
// A Transport abstracts the coordinator→shard calls; NewInProcess runs
// every shard in the calling process against the shared dataset (the
// topk.Config.Shards path), while NewHTTP drives remote topkd processes
// through the /shard/* endpoints of internal/server.
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
	// (<= 0 means all CPUs). In-process shards share the process pool.
	Workers int
	// Replicate mirrors every shard onto a primary + replica endpoint
	// pair behind a Replicated transport, so any single endpoint loss
	// mid-query fails over with the answer unchanged (SHARDING.md
	// "Replication and failover"). In-process runs pair two workers per
	// part; RunHTTP places each part's replica on the next peer in ring
	// order (requires >= 2 peers).
	Replicate bool
	// Replica tunes the failover behaviour when Replicate is set.
	Replica ReplicaOptions
	// Sink, when non-nil, receives the shard.* coordination metrics (see
	// OBSERVABILITY.md) in addition to the core.* phase metrics the
	// in-process workers emit. Observational only.
	Sink obs.Sink
	// WrapTransport, when non-nil, wraps the run's transport after
	// replication is applied and just before the exchange starts — the
	// seam the deterministic fault-injection tests (internal/faulty)
	// plug into. The wrapper sees the exchange-phase operations
	// (collapse, bounds, prune, groups, close); the HTTP run path's
	// partition loads go to the peers directly. Production runs leave it
	// nil.
	WrapTransport func(Transport) Transport
}

// Run executes the full sharded pipeline in the calling process: it
// partitions the initial grouping with Split, starts one in-process
// Worker per shard over the shared dataset, and drives Exchange. groups
// may be nil to start from singletons (the batch entry point); the
// streaming path passes its maintained level-1 grouping. The returned
// result is byte-identical to core.PrunedDedupFromCtx on the same inputs at
// every shard count; RunStats reports the coordination work.
func Run(d *records.Dataset, groups []core.Group, levels []predicate.Level, opts Options) (*core.Result, *RunStats, error) {
	return RunCtx(context.Background(), d, groups, levels, opts)
}

// RunCtx is Run under a context. When ctx carries a trace span (see
// internal/obs), the coordinator's exchange and the in-process workers'
// operations record child spans into the trace; an untraced context
// costs one nil check per coordinator step and nothing else.
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
	obs.Gauge(opts.Sink, "shard.partition.components", float64(parts.Components))
	var t Transport = NewInProcess(d, parts, levels, opts)
	if opts.Replicate {
		// Two independent worker sets over the same parts: lock-step
		// replication needs nothing more in-process.
		rt, rerr := NewReplicated(t, NewInProcess(d, parts, levels, opts), opts.Replica, opts.Sink)
		if rerr != nil {
			return nil, nil, rerr
		}
		t = rt
	}
	if opts.WrapTransport != nil {
		t = opts.WrapTransport(t)
	}
	defer t.Close()
	res, rs, err := Exchange(ctx, t, len(levels), d.Len(), opts)
	if rs != nil {
		rs.Components = parts.Components
	}
	return res, rs, err
}
