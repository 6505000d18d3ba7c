package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: renders one trace's spans in the JSON
// format chrome://tracing and Perfetto load directly: one "process" row
// whose spans are complete ("X") events with microsecond timestamps.

// chromeEvent is one complete event of the trace_event JSON array; pid
// and tid are always 0 (one process, one row).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level trace_event JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes spans (one trace, as returned by
// Recorder.Spans) as a Chrome trace_event JSON document. Timestamps are
// absolute unix microseconds; attributes and events are carried in each
// slice's args so they show in the viewer's detail pane.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, s := range spans {
		args := map[string]any{
			"span":   s.ID.String(),
			"parent": s.Parent.String(),
		}
		for _, a := range s.Attrs {
			if a.Str != "" {
				args[a.Key] = a.Str
			} else {
				args[a.Key] = a.Num
			}
		}
		for i, ev := range s.Events {
			evArgs := map[string]any{"at_us": float64(ev.At) / 1e3}
			for _, a := range ev.Attrs {
				if a.Str != "" {
					evArgs[a.Key] = a.Str
				} else {
					evArgs[a.Key] = a.Num
				}
			}
			args[fmt.Sprintf("event.%d.%s", i, ev.Name)] = evArgs
		}
		dur := float64(s.Dur) / 1e3
		if dur <= 0 {
			// The viewer drops zero-width complete events; keep them
			// visible at the format's resolution.
			dur = 0.001
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: dur, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
