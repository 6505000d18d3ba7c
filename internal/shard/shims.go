// Package shard keeps the signature of a deleted sharded pipeline alive
// for the frozen benchmark harness (benchmark/batch.go times one Run and
// checks its groups against the single-machine pruning). Sharding was
// measured slower than one process with a worker pool at every shard
// count and removed; Run is core.PrunedDedupCtx, and nothing under
// internal/ or cmd/ calls it. DESIGN.md "What would bring a distributed
// tier back" has the measurements and the case for returning.
package shard

import (
	"context"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Options configures Run.
type Options struct {
	// K is the TopK parameter (required, >= 1).
	K int
	// Shards is ignored: there is one part.
	Shards int
}

// RunStats reports a run's coordination work, of which there is none.
type RunStats struct {
	// TransportCalls is always 0.
	TransportCalls int64
}

// Run prunes d with core.PrunedDedupCtx at opts.K, from singletons when
// groups is nil and from groups otherwise, at the default worker count.
func Run(d *records.Dataset, groups []core.Group, levels []predicate.Level, opts Options) (*core.Result, *RunStats, error) {
	ctx, copts := context.Background(), core.Options{K: opts.K}
	var res *core.Result
	var err error
	if groups == nil {
		res, err = core.PrunedDedupCtx(ctx, d, levels, copts)
	} else {
		res, err = core.PrunedDedupFromCtx(ctx, d, groups, levels, copts)
	}
	return res, &RunStats{}, err
}
