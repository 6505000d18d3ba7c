package shard

import (
	"context"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// GroupMeta is what a worker tells the coordinator about a group: just
// enough to place it in the global rank order (weight descending,
// representative ascending) without handing over member lists.
type GroupMeta struct {
	// Weight is the group's aggregate weight.
	Weight float64
	// Rep is the record ID of the group representative.
	Rep int
}

// Worker executes one shard's share of every PrunedDedup phase on the
// core primitives, holding the per-level state (current grouping, bound
// scanner, pruner) between coordinator calls. It works on the shared
// dataset with global record IDs, so every local tie-break — group
// sorting, collapse merge order, candidate enumeration — is the global
// one restricted to the shard's canopy components. The coordinator
// serialises calls to a Worker; a Worker is not safe for concurrent use.
type Worker struct {
	data    *records.Dataset
	levels  []predicate.Level
	workers int
	sink    obs.Sink

	level   int // current 0-based level, set by Collapse
	groups  []core.Group
	scanner *core.BoundScanner
	pruner  *core.Pruner
}

// NewWorker builds a shard worker over the dataset and the shard's
// initial groups; opts supplies the evaluation pool bound and the sink.
func NewWorker(data *records.Dataset, groups []core.Group, levels []predicate.Level, opts Options) *Worker {
	return &Worker{data: data, levels: levels, workers: opts.Workers, sink: opts.Sink, groups: groups}
}

func (w *Worker) meta() []GroupMeta {
	metas := make([]GroupMeta, len(w.groups))
	for i, g := range w.groups {
		metas[i] = GroupMeta{Weight: g.Weight, Rep: g.Rep}
	}
	return metas
}

// Collapse runs the 0-based level's sufficient-predicate collapse over
// the worker's current grouping, re-sorts into local rank order, resets
// any bound/prune state, and returns the new metadata plus the pairs
// verified. It must precede the level's Scan, CPN and Prune* calls.
func (w *Worker) Collapse(level int) (metas []GroupMeta, evals int64) {
	w.level = level
	w.groups, evals = core.CollapseWorkers(w.data, w.groups, w.levels[level].Sufficient, w.workers)
	core.SortGroupsByWeight(w.groups)
	w.scanner = nil
	w.pruner = nil
	return w.meta(), evals
}

// Scan consumes the worker's next count groups in local rank order and
// returns, per group, its greedy-independence verdict and the
// necessary-predicate pairs it evaluated and hit.
func (w *Worker) Scan(count int) core.PartScan {
	if w.scanner == nil {
		w.scanner = core.NewBoundScanner(w.data, w.groups, w.levels[w.level].Necessary, w.workers)
	}
	var ps core.PartScan
	ps.Independent, ps.Evals, ps.Hits = w.scanner.ScanHits(count)
	return ps
}

// CPN returns the Algorithm-1 CPN lower bound of the worker's first
// prefix scanned groups (0 when nothing has been scanned).
func (w *Worker) CPN(prefix int) int {
	if w.scanner == nil {
		return 0
	}
	return w.scanner.CPNAt(prefix)
}

// PruneStart builds the prune state for the broadcast global bound
// m > 0, running the evaluation-free cascades; a worker with no groups
// has nothing to prune and keeps none.
func (w *Worker) PruneStart(m float64) {
	w.pruner = nil
	if len(w.groups) > 0 {
		w.pruner = core.NewPruner(w.data, w.groups, w.levels[w.level].Necessary, m, w.workers, w.sink)
	}
}

// PrunePass runs one exact Jacobi refinement pass and returns the groups
// it killed and the pairs it evaluated (zeros without a prune state); a
// traced ctx records its core.prune.pass span.
func (w *Worker) PrunePass(ctx context.Context) (pruned int, evals int64) {
	if w.pruner == nil {
		return 0, 0
	}
	pruned, evals, _ = w.pruner.PassCtx(ctx)
	return pruned, evals
}

// PruneFinish retires the prune state, keeping only survivors, and
// returns their metadata in local rank order.
func (w *Worker) PruneFinish() []GroupMeta {
	if w.pruner != nil {
		w.groups = w.pruner.Alive()
		w.pruner = nil
	}
	return w.meta()
}

// Groups returns the worker's current groups in local rank order.
func (w *Worker) Groups() []core.Group { return w.groups }
