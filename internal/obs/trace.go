package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the causal half of the observability layer: a span-tree
// tracer that complements the flat metric Sink. A trace is one query's
// tree of timed spans — engine root, per-level pipeline phases and prune
// passes — each the traced half of one Phase (see Start). The same
// constraints as the Sink apply, in the same order: zero cost when off
// (a phase on an untraced context.Context costs one Value lookup and no
// allocation — guarded by TestTracerUntracedNoAllocs), observational
// only (spans carry copies of values the pipeline computed anyway), and
// phase-granular (spans wrap phases and passes, never records or
// pairs).
//
// The trace span name registry lives in OBSERVABILITY.md next to the
// metric registry; cmd/obscheck keeps both in sync with the code.

// TraceID identifies one causal trace. IDs are 16 random bytes,
// rendered as 32 lowercase hex digits (the traceparent wire form).
type TraceID [16]byte

// String renders the ID as 32 hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// MarshalText implements encoding.TextMarshaler (JSON renders the ID as
// its hex string).
func (t TraceID) MarshalText() ([]byte, error) {
	return []byte(t.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("trace id must be 32 hex digits, got %d", len(b))
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one span within a trace. IDs are process-unique
// 64-bit values rendered as 16 hex digits; the string form keeps them
// exact through JSON (a raw uint64 above 2^53 would lose bits in a
// float64 round trip, corrupting parent links).
type SpanID uint64

// String renders the ID as 16 hex digits.
func (s SpanID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s))
	return hex.EncodeToString(b[:])
}

// MarshalText implements encoding.TextMarshaler.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("span id must be 16 hex digits, got %d", len(b))
	}
	var raw [8]byte
	if _, err := hex.Decode(raw[:], b); err != nil {
		return err
	}
	*s = SpanID(binary.BigEndian.Uint64(raw[:]))
	return nil
}

// Attr is one numeric key/value attribute on a span or event (a count,
// bound or rank). Values stay exact through JSON up to 2^53, far beyond
// any pipeline count.
type Attr struct {
	Key string  `json:"k"`
	Num float64 `json:"n,omitempty"`
}

// Num builds an attribute.
func Num(key string, v float64) Attr { return Attr{Key: key, Num: v} }

// SpanEvent is one timestamped point event inside a span (e.g. the M
// lower bound after one exchange block).
type SpanEvent struct {
	Name  string `json:"name"`
	At    int64  `json:"at_unix_ns"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanRecord is one finished span as stored by a Recorder and served by
// GET /debug/traces.
type SpanRecord struct {
	Trace  TraceID     `json:"trace"`
	ID     SpanID      `json:"id"`
	Parent SpanID      `json:"parent,omitempty"`
	Name   string      `json:"name"`
	Start  int64       `json:"start_unix_ns"`
	Dur    int64       `json:"dur_ns"`
	Attrs  []Attr      `json:"attrs,omitempty"`
	Events []SpanEvent `json:"events,omitempty"`
}

// AttrNum returns the named attribute (0 if absent).
func (r *SpanRecord) AttrNum(key string) float64 {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Num
		}
	}
	return 0
}

// Recorder collects finished spans, keyed by trace, in a bounded ring
// of recent traces. Finishing a span takes one short mutex hold (append
// to the trace's slice); starting one takes an atomic increment and no
// lock. The zero-cost-when-off property lives one level up: an
// untraced context never reaches the Recorder at all.
type Recorder struct {
	next atomic.Uint64 // span-ID allocator, randomly seeded

	mu     sync.Mutex
	limit  int // max traces retained
	traces map[TraceID]*traceBuf
	order  []TraceID // insertion order, oldest first
}

// maxSpansPerTrace bounds one trace's memory; spans beyond it are
// counted but dropped.
const maxSpansPerTrace = 8192

// DefaultTraceLimit is the ring size NewRecorder(0) uses.
const DefaultTraceLimit = 32

type traceBuf struct {
	name    string // root span name, for summaries
	start   int64  // earliest span start seen, unix ns
	spans   []SpanRecord
	dropped int
}

// NewRecorder creates a Recorder retaining the most recent limit traces
// (DefaultTraceLimit if limit <= 0).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	r := &Recorder{limit: limit, traces: make(map[TraceID]*traceBuf)}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		// Random base so span IDs differ across restarts. Clear the top
		// bit to keep headroom before wrapping.
		r.next.Store(binary.BigEndian.Uint64(seed[:]) >> 1)
	}
	return r
}

func (r *Recorder) newSpanID() SpanID {
	id := SpanID(r.next.Add(1))
	if id == 0 { // 0 means "no parent"; skip it if the counter wraps
		id = SpanID(r.next.Add(1))
	}
	return id
}

// record files one finished span.
func (r *Recorder) record(rec SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bufFor(rec.Trace).add(rec)
}

// bufFor returns (creating and, at capacity, evicting as needed) the
// buffer for a trace. Caller holds r.mu.
func (r *Recorder) bufFor(id TraceID) *traceBuf {
	tb := r.traces[id]
	if tb == nil {
		tb = &traceBuf{}
		r.traces[id] = tb
		r.order = append(r.order, id)
		for len(r.order) > r.limit {
			delete(r.traces, r.order[0])
			r.order = r.order[1:]
		}
	}
	return tb
}

func (tb *traceBuf) add(rec SpanRecord) {
	if tb.start == 0 || rec.Start < tb.start {
		tb.start = rec.Start
	}
	if tb.name == "" && rec.Parent == 0 {
		tb.name = rec.Name
	}
	if len(tb.spans) >= maxSpansPerTrace {
		tb.dropped++
		return
	}
	tb.spans = append(tb.spans, rec)
}

// TraceSummary describes one retained trace.
type TraceSummary struct {
	ID      TraceID `json:"trace"`
	Name    string  `json:"name,omitempty"`
	Start   int64   `json:"start_unix_ns"`
	Spans   int     `json:"spans"`
	Dropped int     `json:"dropped_spans,omitempty"`
}

// Traces lists the retained traces, most recent first.
func (r *Recorder) Traces() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		id := r.order[i]
		tb := r.traces[id]
		out = append(out, TraceSummary{
			ID: id, Name: tb.name, Start: tb.start,
			Spans: len(tb.spans), Dropped: tb.dropped,
		})
	}
	return out
}

// Spans returns a copy of one trace's finished spans sorted by start
// time (ties by span ID), or nil if the trace is unknown or evicted.
func (r *Recorder) Spans(id TraceID) []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tb := r.traces[id]
	var out []SpanRecord
	if tb != nil {
		out = append([]SpanRecord(nil), tb.spans...)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// span is one in-flight trace span, the traced half of a Phase. It is
// owned by the goroutine that started the phase; attributes and events
// are attached from that goroutine only.
type span struct {
	rec    *Recorder
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	events []SpanEvent
	filed  bool
}

// end files the finished span, which lasted d, with the Recorder, once.
func (s *span) end(d time.Duration) {
	if s.filed {
		return
	}
	s.filed = true
	s.rec.record(SpanRecord{
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.UnixNano(),
		Dur:    int64(d),
		Attrs:  s.attrs,
		Events: s.events,
	})
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// Traced reports whether ctx carries an active trace span. The untraced
// path is one map-free Value walk and allocates nothing.
func Traced(ctx context.Context) bool {
	s, _ := ctx.Value(ctxKey{}).(*span)
	return s != nil
}

// Start opens a phase like the package's Start, except that on an
// untraced ctx it roots a fresh trace (a new random trace ID) on r. On a
// nil Recorder it is Start: the phase joins ctx's trace if there is one
// and records no span otherwise.
func (r *Recorder) Start(ctx context.Context, sink Sink, name string) (context.Context, Phase) {
	if r == nil || Traced(ctx) {
		return Start(ctx, sink, name)
	}
	ph := Phase{sink: sink, name: name, start: time.Now()}
	var tid TraceID
	if _, err := crand.Read(tid[:]); err != nil {
		return ctx, ph
	}
	ph.span = &span{rec: r, trace: tid, id: r.newSpanID(), name: name, start: ph.start}
	return context.WithValue(ctx, ctxKey{}, ph.span), ph
}
