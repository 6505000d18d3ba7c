package stream

import (
	"context"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/inc"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/shard"
	"topkdedup/internal/sketch"
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
// Taking a snapshot requires the same external synchronisation as every
// other Incremental method; using a taken Snapshot requires none.
type Snapshot struct {
	data   *records.Dataset
	groups []core.Group
	levels []predicate.Level
	est    *inc.Estimator
	sk     *sketch.View
	evals  int64
	shards int
	taken  time.Time
}

// Snapshot freezes the accumulator's current state. Like every other
// method of Incremental it must not run concurrently with Add; the
// returned Snapshot is immutable and safe for unsynchronised concurrent
// use from then on.
func (inc *Incremental) Snapshot() *Snapshot {
	start := time.Now()
	n := inc.data.Len()
	// Groups first: the delta rebuild refreshes the component partition
	// the estimator then freezes (inc.State.Estimator's contract).
	groups := inc.Groups()
	defer obs.ObserveSince(inc.sink, "stream.snapshot", start)
	var sk *sketch.View
	if inc.sk != nil {
		sk = inc.sk.View()
	}
	return &Snapshot{
		data: &records.Dataset{
			Name:   inc.data.Name,
			Schema: inc.data.Schema,
			// Full slice expression: capacity == length, so the write
			// side's next append copies to a fresh array instead of
			// writing past the snapshot's window.
			Recs: inc.data.Recs[:n:n],
		},
		groups: groups,
		levels: inc.levels,
		est:    inc.st.Estimator(),
		sk:     sk,
		evals:  inc.evals,
		shards: inc.shards,
		taken:  time.Now(),
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
// per call, so each caller may hand it to core.PrunedDedupFromCtx (which
// sorts and merges the slice in place) without affecting other readers.
// The Group values — including their Members slices — are shared and
// must be treated as read-only.
func (s *Snapshot) Groups() []core.Group {
	return append([]core.Group(nil), s.groups...)
}

// TopK answers the TopK count query over the frozen state, like
// Incremental.TopK but safe for any number of concurrent callers on the
// same Snapshot. workers and sink follow the core.Options conventions
// (workers <= 0 means all CPUs; a nil sink is free). A SetShards value
// in force when the snapshot was taken routes the pruning phases
// through the sharded coordinator, with the same byte-identity
// guarantee.
func (s *Snapshot) TopK(k, workers int, sink obs.Sink) (*core.Result, error) {
	return s.TopKCtx(context.Background(), k, workers, sink)
}

// TopKCtx is TopK under a context: with a traced ctx a stream.topk
// child span wraps the query and the pruning phases record beneath it.
func (s *Snapshot) TopKCtx(ctx context.Context, k, workers int, sink obs.Sink) (*core.Result, error) {
	if s.data.Len() == 0 {
		return &core.Result{}, nil
	}
	sp := obs.StartSpan(sink, "stream.topk")
	defer sp.End()
	ctx, tsp := obs.StartChild(ctx, "stream.topk")
	defer tsp.End()
	if s.shards > 1 {
		res, _, err := shard.RunCtx(ctx, s.data, s.Groups(), s.levels, shard.Options{
			K: k, Shards: s.shards, Workers: workers, Sink: sink,
		})
		return res, err
	}
	return core.PrunedDedupFromCtx(ctx, s.data, s.Groups(), s.levels, core.Options{K: k, Workers: workers, Sink: sink, Bound: s.est})
}

// SketchView returns the frozen approximate-tier sketch, or nil when
// the accumulator had no sketch enabled when the snapshot was taken.
// The serving layer answers mode=approx /topk queries from it without
// touching the exact pipeline.
func (s *Snapshot) SketchView() *sketch.View { return s.sk }

// BoundEstimator returns the snapshot's frozen verdict-replaying
// lower-bound estimator (see internal/inc): byte-identical to the
// from-scratch §4.2 scan but reusing cached greedy-independence
// verdicts for canopy components untouched since earlier queries. The
// serving layer injects it into its per-epoch engine alongside Groups.
func (s *Snapshot) BoundEstimator() *inc.Estimator { return s.est }
