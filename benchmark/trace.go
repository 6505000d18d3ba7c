package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function (spans inside the program are a later issue).
// Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // the op (or batch round) that caused it
	// child is the time covered by direct child spans, so that
	// self = End - Start - child.
	child int64
}

// tracer keeps the spans of one traced replay in memory. The replay is
// single-threaded, so the open spans form a stack and the parent of a new
// span is the top of it. A nil *tracer records nothing: the same replay
// code run with nil is the untraced side of trace.overhead_share.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span; the returned index goes to end.
func (t *tracer) start(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// self returns the self times, in seconds, of every span called name.
func (t *tracer) self(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start-s.child)/1e9)
		}
	}
	return out
}

// selfPerOp sums the self times of the spans called name within each op,
// and returns the sums in op order — "core.prune_s per round" is this.
func (t *tracer) selfPerOp(name string) []float64 {
	at := map[int]int{}
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		j, ok := at[s.Op]
		if !ok {
			j = len(out)
			at[s.Op] = j
			out = append(out, 0)
		}
		out[j] += float64(s.End-s.Start-s.child) / 1e9
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
