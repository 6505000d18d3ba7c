package server

import (
	"net/http"

	"topkdedup/internal/obs"
)

// TraceListResponse is the GET /debug/traces body without a trace
// parameter: the recorder's retained traces, most recent first.
type TraceListResponse struct {
	// Traces summarises each retained trace.
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the GET /debug/traces?trace=<id> body: one trace's
// finished spans sorted by start time.
type TraceResponse struct {
	// Trace is the requested trace ID.
	Trace obs.TraceID `json:"trace"`
	// Spans are the trace's finished spans.
	Spans []obs.SpanRecord `json:"spans"`
}

// handleDebugTraces serves the trace ring. Without parameters it lists
// retained traces; with ?trace=<32-hex-id> it returns that trace's
// spans (&format=chrome converts them to the Chrome trace_event JSON
// that chrome://tracing and Perfetto load directly). Answers 404 when
// tracing is disabled (Config.TraceLimit < 0).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (TraceLimit < 0)")
		return
	}
	raw := r.URL.Query().Get("trace")
	if raw == "" {
		writeJSON(w, http.StatusOK, TraceListResponse{Traces: s.tracer.Traces()})
		return
	}
	var tid obs.TraceID
	if err := tid.UnmarshalText([]byte(raw)); err != nil {
		writeError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	spans := s.tracer.Spans(tid)
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChromeTrace(w, spans); err != nil {
			// Headers are gone; nothing useful left to send.
			return
		}
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{Trace: tid, Spans: spans})
}
