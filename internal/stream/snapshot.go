package stream

import (
	"context"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Snapshot is an immutable point-in-time view of an Incremental
// accumulator: the records present when it was taken plus the
// incrementally maintained level-1 collapse, frozen. Snapshots are the
// read side of the serving layer's epoch design (internal/server):
// ingest keeps mutating the accumulator while any number of goroutines
// query a published Snapshot concurrently.
//
// Immutability is copy-on-write, not deep copy. The snapshot's dataset
// shares record storage with the accumulator — safe because records are
// append-only and never mutated once appended — with the slice capacity
// clamped so later appends can never land inside the snapshot's window.
// The group list is materialised at snapshot time (the union-find's path
// halving writes on every Find, so it cannot be read concurrently with
// Add); Groups hands each caller a fresh top-level slice because the
// query pipeline reorders and re-merges it in place. Member slices are
// shared read-only — nothing in core ever writes to an input group's
// Members.
//
// A snapshot also owns the level-1 prefix of Algorithm 2 (level1 — the
// S1 collapse of the maintained groups, the weight sort and the N1
// blocking index, none of which depend on K), computed by the first
// query that needs it and kept, read-only, for as long as the snapshot
// is reachable. Nothing that depends on a query is kept here: the
// serving layer memoises per epoch (internal/server).
//
// Taking a snapshot requires the same external synchronisation as every
// other Incremental method; using a taken Snapshot requires none.
type Snapshot struct {
	data   *records.Dataset
	groups []core.Group
	levels []predicate.Level
	evals  int64
	taken  time.Time

	level1 *core.PreparedLevel
}

// Snapshot freezes the accumulator's current state. Like every other
// method of Incremental it must not run concurrently with Add; the
// returned Snapshot is immutable and safe for unsynchronised concurrent
// use from then on.
func (inc *Incremental) Snapshot() *Snapshot {
	start := time.Now()
	n := inc.data.Len()
	groups := inc.Groups()
	defer obs.ObserveSince(inc.sink, "stream.snapshot", start)
	data := &records.Dataset{
		Name:   inc.data.Name,
		Schema: inc.data.Schema,
		// Full slice expression: capacity == length, so the write
		// side's next append copies to a fresh array instead of
		// writing past the snapshot's window.
		Recs: inc.data.Recs[:n:n],
	}
	return &Snapshot{
		data:   data,
		groups: groups,
		levels: inc.levels,
		evals:  inc.evals,
		taken:  time.Now(),
		level1: core.PrepareLevel(data, groups, inc.levels[0]),
	}
}

// Dataset returns the frozen dataset. Read-only by contract: callers
// must not append to it or mutate its records.
func (s *Snapshot) Dataset() *records.Dataset { return s.data }

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return s.data.Len() }

// Taken returns the wall-clock time the snapshot was frozen at.
func (s *Snapshot) Taken() time.Time { return s.taken }

// Evals returns the accumulator's maintenance evaluation counter as of
// the snapshot.
func (s *Snapshot) Evals() int64 { return s.evals }

// Groups returns the frozen level-1 collapse as a fresh top-level slice
// per call, so a caller may reorder it without affecting other readers.
// The Group values — including their Members slices — are shared and
// must be treated as read-only.
func (s *Snapshot) Groups() []core.Group {
	return append([]core.Group(nil), s.groups...)
}

// TopK answers the TopK count query over the frozen state, like
// Incremental.TopK but safe for any number of concurrent callers on the
// same Snapshot. workers and sink follow the core.Options conventions
// (workers <= 0 means all CPUs; a nil sink is free).
func (s *Snapshot) TopK(k, workers int, sink obs.Sink) (*core.Result, error) {
	return s.TopKCtx(context.Background(), k, workers, sink)
}

// TopKCtx is TopK under a context: with a traced ctx a stream.topk
// child span wraps the query and the pruning phases record beneath it.
// Every call runs the K-dependent phases from the snapshot's level 1.
// Treat the returned Result as read-only: it may share group members
// with the snapshot.
func (s *Snapshot) TopKCtx(ctx context.Context, k, workers int, sink obs.Sink) (*core.Result, error) {
	if s.data.Len() == 0 {
		return &core.Result{}, nil
	}
	sp := obs.StartSpan(sink, "stream.topk")
	defer sp.End()
	ctx, tsp := obs.StartChild(ctx, "stream.topk")
	defer tsp.End()
	return s.prune(ctx, core.Options{K: k, Workers: workers, Sink: sink})
}

// ThresholdCtx runs the pruning of the §7.2 thresholded rank query
// (core.Options.Threshold = t) over the frozen state, from the
// snapshot's own level 1 like TopKCtx, under a stream.threshold child
// span of a traced ctx. workers and sink follow TopK.
func (s *Snapshot) ThresholdCtx(ctx context.Context, t float64, workers int, sink obs.Sink) (*core.Result, error) {
	if s.data.Len() == 0 {
		return &core.Result{}, nil
	}
	ctx, tsp := obs.StartChild(ctx, "stream.threshold")
	defer tsp.End()
	return s.prune(ctx, core.Options{Threshold: t, Workers: workers, Sink: sink})
}

// prune runs the pruning phases of one query over the frozen state. A
// query whose context is already done is not worth a pruning: it gets
// the context's error.
func (s *Snapshot) prune(ctx context.Context, opts core.Options) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.PrunedDedupPreparedCtx(ctx, s.data, s.level1, s.levels, opts)
}

// Heaviest returns the k heaviest groups of the frozen level-1 collapse
// (all of them when there are fewer), in the (weight desc, rep asc)
// order of core.SortGroupsByWeight — what mode=approx serves. It is a
// window onto the snapshot's own list, not a copy: read-only, like
// everything else reachable from a Snapshot. k must not be negative.
func (s *Snapshot) Heaviest(k int) []core.Group {
	n := min(k, len(s.groups))
	return s.groups[:n:n]
}

// SketchView is kept because the frozen benchmark harness
// (benchmark/replay.go) times snap.SketchView().Top(k), which is
// s.Heaviest(k).
func (s *Snapshot) SketchView() SketchView { return SketchView{s} }

// SketchView is what Snapshot.SketchView returns.
type SketchView struct{ s *Snapshot }

// Top is Snapshot.Heaviest.
func (v SketchView) Top(k int) []core.Group { return v.s.Heaviest(k) }
