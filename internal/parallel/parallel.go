// Package parallel provides the bounded worker-pool primitives the
// PrunedDedup pipeline uses to spread independent work — predicate
// evaluations, pair scoring, per-component clustering — across CPU
// cores. It is stdlib-only (sync, sync/atomic, runtime, plus the
// repo's own stdlib-only internal/obs for optional pool metrics).
//
// The pipeline's contract is parallel evaluation, deterministic
// reduction: callers fan independent computations out with For/ForWorker,
// each body writing only to its own index's slot, and fold the results
// serially in index order afterwards. Under that discipline results are
// byte-identical regardless of the worker count.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topkdedup/internal/obs"
)

// poolSink is the optional process-wide observability sink for the pool
// (set with SetSink). It is read with one atomic load per For/ForWorker
// call, so the nil default costs nothing measurable on the hot path.
var poolSink atomic.Pointer[obs.Sink]

// SetSink attaches an observability sink to the worker pool. Every
// subsequent For/ForWorker call emits parallel.for_calls and
// parallel.tasks counters plus, when the pool actually fans out, one
// parallel.worker.busy.seconds observation per participating worker.
// Pass nil to detach. Safe for concurrent use; affects the whole
// process (the pool is a free-function API with no instance state).
func SetSink(s obs.Sink) {
	if s == nil {
		poolSink.Store(nil)
		return
	}
	poolSink.Store(&s)
}

// sink returns the attached sink or nil.
func sink() obs.Sink {
	if p := poolSink.Load(); p != nil {
		return *p
	}
	return nil
}

// Resolve normalises a Workers knob: values <= 0 mean runtime.NumCPU(),
// anything else is taken as-is. 1 selects the serial in-line path (no
// goroutines are spawned anywhere in this package when workers == 1).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// grain is how many consecutive indices a worker claims per atomic
// fetch. Pipeline work items (one predicate evaluation, one pair score)
// run in the microsecond range, so batching keeps the cursor off the
// hot path while still load-balancing skewed items.
const grain = 32

// For runs body(i) for every i in [0, n) across the given number of
// workers (after Resolve). body must be safe for concurrent invocation
// and must only write to state owned by index i; the iteration order
// across workers is unspecified. With workers == 1 or tiny n the loop
// runs inline on the calling goroutine.
func For(workers, n int, body func(i int)) {
	ForWorker(workers, n, func(_, i int) { body(i) })
}

// ForCtx is For under a context: when ctx carries an active trace span
// (see internal/obs), the loop is wrapped in one "parallel.for" child
// span annotated with the task count and resolved worker bound. An
// untraced context adds a single context lookup — no allocation, no
// clock read — so the hot path stays identical to For.
func ForCtx(ctx context.Context, workers, n int, body func(i int)) {
	ForWorkerCtx(ctx, workers, n, func(_, i int) { body(i) })
}

// ForWorkerCtx is ForWorker under a context, with the same optional
// "parallel.for" loop span as ForCtx.
func ForWorkerCtx(ctx context.Context, workers, n int, body func(worker, i int)) {
	if obs.Traced(ctx) {
		_, ph := obs.Start(ctx, nil, "parallel.for")
		ph.Attr("n", float64(n))
		ph.Attr("workers", float64(Resolve(workers)))
		defer ph.End()
	}
	ForWorker(workers, n, body)
}

// ForWorker is For with the worker's identity passed to the body, so
// callers can hand each worker private scratch state (a reusable stamp,
// a candidate buffer). Worker ids are dense in [0, Resolve(workers));
// the caller can size per-worker state by Resolve(workers).
func ForWorker(workers, n int, body func(worker, i int)) {
	if n <= 0 {
		return
	}
	s := sink()
	if s != nil {
		s.Count("parallel.for_calls", 1)
		s.Count("parallel.tasks", int64(n))
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		start := time.Time{}
		if s != nil {
			start = time.Now()
		}
		for i := 0; i < n; i++ {
			body(0, i)
		}
		if s != nil {
			s.Observe("parallel.worker.busy.seconds", time.Since(start).Seconds())
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			start := time.Time{}
			if s != nil {
				start = time.Now()
			}
			for {
				lo := int(cursor.Add(grain)) - grain
				if lo >= n {
					break
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(worker, i)
				}
			}
			if s != nil {
				// Busy time is wall time inside the worker goroutine —
				// queue wait is the gap between this and the enclosing
				// phase span.
				s.Observe("parallel.worker.busy.seconds", time.Since(start).Seconds())
			}
		}(w)
	}
	wg.Wait()
}
