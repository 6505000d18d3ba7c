// Package obs is the pipeline's observability substrate: monotonic
// counters, gauges, log-bucketed duration/size histograms, and a
// lightweight span tree, all fed by one phase instrument (Start). It is
// stdlib-only like the rest of the repository.
//
// Design constraints, in priority order:
//
//  1. Zero cost when off. Every instrumented call site takes a Sink
//     value; a nil Sink (the default everywhere) short-circuits before
//     any allocation, so the uninstrumented pipeline is byte-for-byte
//     the PR-1 pipeline (guarded by BenchmarkNoopSinkOverhead). A phase
//     reads the clock twice whatever its sink: that one duration is
//     also the phase time core's LevelStats report.
//  2. Observational only. Sinks receive copies of values the pipeline
//     already computed; nothing reads a metric back into control flow,
//     so results stay byte-identical at every Workers count with any
//     sink attached (asserted by the determinism tests).
//  3. Phase-granular emission. Hot loops aggregate locally (the eval
//     counters the phases always kept) and emit once per phase/pass —
//     a Sink is never called per record or per pair.
//
// The stable metric/span name registry lives in OBSERVABILITY.md; names
// are dot-separated, and a phase observes its duration in seconds under
// "<name>.seconds".
package obs

import (
	"context"
	"strings"
	"time"
)

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
	// Phase durations arrive here, in seconds, under "<phase>.seconds".
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

// Phase is one timed pipeline phase, the package's one instrument: it
// reads the clock when Start opens it and once more when End closes
// it, and that one duration is the phase's `<name>.seconds` observation,
// its trace span's Dur and what End returns (core's LevelStats times).
// Count, Gauge and Observe write a value once under its registry name:
// to the sink, and to the span as the attribute named by the name's
// last segment. A Phase is a value owned by the goroutine that started
// it; on an untraced context with a nil sink it allocates nothing.
type Phase struct {
	sink  Sink
	name  string
	start time.Time
	span  *span
}

// Start opens a phase: a child span of ctx's trace when ctx is traced
// (the returned context carries it, so the phase's own phases nest
// beneath it), no span otherwise. End observes `<name>.seconds` into
// sink unless sink is nil.
func Start(ctx context.Context, sink Sink, name string) (context.Context, Phase) {
	ph := Phase{sink: sink, name: name, start: time.Now()}
	if parent, _ := ctx.Value(ctxKey{}).(*span); parent != nil {
		ph.span = &span{rec: parent.rec, trace: parent.trace, id: parent.rec.newSpanID(), parent: parent.id, name: name, start: ph.start}
		ctx = context.WithValue(ctx, ctxKey{}, ph.span)
	}
	return ctx, ph
}

// Traced reports whether the phase records a trace span.
func (p Phase) Traced() bool { return p.span != nil }

// Count adds delta to the named counter and sets the span attribute
// named by the name's last segment to delta.
func (p Phase) Count(name string, delta int64) {
	Count(p.sink, name, delta)
	p.attr(name, float64(delta))
}

// Gauge sets the named gauge and the span attribute named by the name's
// last segment.
func (p Phase) Gauge(name string, value float64) {
	Gauge(p.sink, name, value)
	p.attr(name, value)
}

// Observe records one sample of the named distribution and sets the
// span attribute named by the name's last segment.
func (p Phase) Observe(name string, value float64) {
	Observe(p.sink, name, value)
	p.attr(name, value)
}

// attr sets the span attribute keyed by name's last segment.
func (p Phase) attr(name string, v float64) {
	if p.span != nil {
		p.Attr(name[strings.LastIndexByte(name, '.')+1:], v)
	}
}

// Attr sets a trace-only numeric attribute (one no sink row carries,
// such as a hit count or a round number).
func (p Phase) Attr(key string, v float64) {
	if p.span != nil {
		p.span.attrs = append(p.span.attrs, Attr{Key: key, Num: v})
	}
}

// Event records a point event on the span at the current time. The
// attrs slice is built by the caller before the call, so hot paths
// guard it with Traced.
func (p Phase) Event(name string, attrs ...Attr) {
	if p.span != nil {
		p.span.events = append(p.span.events, SpanEvent{Name: name, At: time.Now().UnixNano(), Attrs: attrs})
	}
}

// End closes the phase and returns its duration, which it has observed
// under `<name>.seconds` (when the sink is non-nil) and filed as the
// span's Dur (when traced). Call it once: a second call files no
// second span but observes a second duration.
func (p Phase) End() time.Duration {
	d := time.Since(p.start)
	if p.sink != nil {
		p.sink.Observe(p.name+".seconds", d.Seconds())
	}
	if p.span != nil {
		p.span.end(d)
	}
	return d
}

// TraceID returns the phase's trace ID (zero when untraced).
func (p Phase) TraceID() TraceID {
	if p.span == nil {
		return TraceID{}
	}
	return p.span.trace
}

// SpanID returns the phase's span ID (0 when untraced).
func (p Phase) SpanID() SpanID {
	if p.span == nil {
		return 0
	}
	return p.span.id
}

// Recorder returns the Recorder the phase's span records into (nil when
// untraced) — callers use it to read the finished trace back.
func (p Phase) Recorder() *Recorder {
	if p.span == nil {
		return nil
	}
	return p.span.rec
}
