// Package obs is the pipeline's observability substrate: monotonic
// counters, gauges, log-bucketed duration/size histograms, and a
// lightweight span API, all funnelled through one pluggable Sink. It is
// stdlib-only like the rest of the repository.
//
// Design constraints, in priority order:
//
//  1. Zero cost when off. Every instrumented call site takes a Sink
//     value; a nil Sink (the default everywhere) short-circuits before
//     any allocation or clock read, so the uninstrumented pipeline is
//     byte-for-byte the PR-1 pipeline (guarded by
//     BenchmarkNoopSinkOverhead).
//  2. Observational only. Sinks receive copies of values the pipeline
//     already computed; nothing reads a metric back into control flow,
//     so results stay byte-identical at every Workers count with any
//     sink attached (asserted by the determinism tests).
//  3. Phase-granular emission. Hot loops aggregate locally (the eval
//     counters the phases always kept) and emit once per phase/pass —
//     a Sink is never called per record or per pair.
//
// The stable metric/span name registry lives in OBSERVABILITY.md; names
// are dot-separated, spans observe their duration in seconds under
// "<name>.seconds".
package obs

import "time"

// Sink receives metric events from the pipeline. Implementations must
// be safe for concurrent use (phases running on the worker pool emit
// from the coordinating goroutine, but the parallel pool itself reports
// per-worker busy time concurrently). All methods must be non-blocking
// and cheap; heavy export work belongs in a Snapshot-style reader, not
// in the event path.
//
// A nil Sink is the universal "off" switch: every helper in this
// package and every instrumented call site treats nil as no-op.
type Sink interface {
	// Count adds delta (may be negative for gauge-like adjustments,
	// though pipeline counters only ever grow) to the named monotonic
	// counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to its latest value.
	Gauge(name string, value float64)
	// Observe records one sample of the named distribution (histogram).
	// Span durations arrive here, in seconds, under "<span>.seconds".
	Observe(name string, value float64)
}

// Count is a nil-safe Sink.Count.
func Count(s Sink, name string, delta int64) {
	if s != nil {
		s.Count(name, delta)
	}
}

// Gauge is a nil-safe Sink.Gauge.
func Gauge(s Sink, name string, value float64) {
	if s != nil {
		s.Gauge(name, value)
	}
}

// Observe is a nil-safe Sink.Observe.
func Observe(s Sink, name string, value float64) {
	if s != nil {
		s.Observe(name, value)
	}
}

// ObserveSince is a nil-safe duration observation under "<name>.seconds"
// for call sites that already hold a start time (the core phases, which
// time themselves for LevelStats anyway).
func ObserveSince(s Sink, name string, start time.Time) {
	if s != nil {
		s.Observe(name+".seconds", time.Since(start).Seconds())
	}
}

// ObserveDuration is a nil-safe observation of an already-measured
// duration under "<name>.seconds".
func ObserveDuration(s Sink, name string, d time.Duration) {
	if s != nil {
		s.Observe(name+".seconds", d.Seconds())
	}
}

// Span is an in-flight trace span. The zero Span (returned by StartSpan
// on a nil Sink) is inert: End is a no-op and costs two nil checks.
type Span struct {
	sink  Sink
	name  string
	start time.Time
}

// StartSpan opens a span. On End the elapsed wall time is observed, in
// seconds, under "<name>.seconds". With a nil sink no clock is read.
func StartSpan(s Sink, name string) Span {
	if s == nil {
		return Span{}
	}
	return Span{sink: s, name: name, start: time.Now()}
}

// End closes the span, emitting its duration. Safe on the zero Span and
// safe to call at most once; additional calls emit additional (wrong)
// observations, so don't.
func (sp Span) End() {
	if sp.sink != nil {
		sp.sink.Observe(sp.name+".seconds", time.Since(sp.start).Seconds())
	}
}
