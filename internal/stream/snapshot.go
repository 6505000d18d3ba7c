package stream

import (
	"context"
	"sync"
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
// A snapshot also owns everything on the exact read path that does not
// depend on the request, each piece computed by the first query that
// needs it and kept for as long as the snapshot is reachable (in the
// serving layer: until the next epoch publishes and the last query on
// this one returns): the level-1 prefix of Algorithm 2 (level1 — the S1
// collapse of the maintained groups, the weight sort and the N1 blocking
// index, none of which depend on K) and one pruning result per K
// (pruned). Everything kept is shared read-only.
//
// Taking a snapshot requires the same external synchronisation as every
// other Incremental method; using a taken Snapshot requires none.
type Snapshot struct {
	data        *records.Dataset
	groups      []core.Group
	levels      []predicate.Level
	evals       int64
	prunePasses int
	taken       time.Time

	level1 *core.PreparedLevel

	mu     sync.Mutex
	pruned map[int]*prunedOnce // by K
}

// prunedOnce is one K's pruning: computed by the first TopKCtx to ask
// for it while later ones wait on once, then read by all of them.
type prunedOnce struct {
	once sync.Once
	res  *core.Result
	err  error
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
		data:        data,
		groups:      groups,
		levels:      inc.levels,
		evals:       inc.evals,
		prunePasses: inc.prunePasses,
		taken:       time.Now(),
		level1:      core.PrepareLevel(data, groups, inc.levels[0]),
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
//
// The pruning of one K is computed once per snapshot: the first call
// runs it (workers, sink and the trace are that call's) and concurrent
// or later calls for the same K wait for and return the same result —
// their stream.topk span carries reused=1 and no core.* children, and
// sink counts stream.topk.reused. Results do not depend on workers, so
// K alone keys the memo. The returned Result is shared: treat it, and
// everything reachable from it, as read-only. An error is returned to
// the calls that waited on it and then forgotten, so the next call
// computes again.
func (s *Snapshot) TopKCtx(ctx context.Context, k, workers int, sink obs.Sink) (*core.Result, error) {
	return s.topK(ctx, k, workers, sink, true)
}

// FreshTopKCtx is TopKCtx without the per-K memo: it always runs the
// K-dependent phases, neither reading nor filling the memo, so a traced
// ctx gets the full core.* span tree — what ?explain=1 reports from.
// Level 1's collapse and blocking are still the snapshot's own.
func (s *Snapshot) FreshTopKCtx(ctx context.Context, k, workers int, sink obs.Sink) (*core.Result, error) {
	return s.topK(ctx, k, workers, sink, false)
}

func (s *Snapshot) topK(ctx context.Context, k, workers int, sink obs.Sink, memo bool) (*core.Result, error) {
	if s.data.Len() == 0 {
		return &core.Result{}, nil
	}
	sp := obs.StartSpan(sink, "stream.topk")
	defer sp.End()
	ctx, tsp := obs.StartChild(ctx, "stream.topk")
	defer tsp.End()
	opts := core.Options{K: k, Workers: workers, Sink: sink}
	if !memo {
		return s.prune(ctx, opts)
	}
	s.mu.Lock()
	ent := s.pruned[k]
	if ent == nil {
		if s.pruned == nil {
			s.pruned = make(map[int]*prunedOnce)
		}
		ent = &prunedOnce{}
		s.pruned[k] = ent
	}
	s.mu.Unlock()
	reused := true
	ent.once.Do(func() {
		reused = false
		ent.res, ent.err = s.prune(ctx, opts)
		if ent.err != nil {
			s.mu.Lock()
			if s.pruned[k] == ent {
				delete(s.pruned, k)
			}
			s.mu.Unlock()
		}
	})
	if reused {
		tsp.Attr("reused", 1)
		obs.Count(sink, "stream.topk.reused", 1)
	}
	return ent.res, ent.err
}

// ThresholdCtx runs the pruning of the §7.2 thresholded rank query
// (core.Options.Threshold = t) over the frozen state, from the
// snapshot's own level 1 like TopKCtx, under a stream.threshold child
// span of a traced ctx. Nothing is memoised here — the serving layer
// caches the finished answer per t. workers and sink follow TopK.
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
// the context's error, which topK's memo does not keep.
func (s *Snapshot) prune(ctx context.Context, opts core.Options) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.PrunePasses = s.prunePasses
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
