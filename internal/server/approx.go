// The approximate fast tier of /topk: mode=approx answers with the
// first k groups of the level-1 collapse the epoch's snapshot already
// holds (stream.Snapshot.Heaviest) — exact level-1 closure weights, in
// microseconds, with no pruning, scoring or segmentation; mode=hybrid
// returns the same answer immediately and kicks off a singleflight
// background task that computes the exact answer, warms the epoch answer
// cache, and records how far the final weights moved under
// sketch.hybrid.observed_error. mode=exact is the full pipeline. See
// SERVING.md "Approximate tier".
package server

import (
	"context"
	"net/http"

	topk "topkdedup"
)

// The /topk serving modes (?mode=; absent means ModeExact).
const (
	// ModeExact runs the full PrunedDedup pipeline.
	ModeExact = "exact"
	// ModeApprox answers from the epoch's level-1 group list only.
	ModeApprox = "approx"
	// ModeHybrid answers like ModeApprox and refreshes the exact answer
	// in the background.
	ModeHybrid = "hybrid"
)

// ApproxEntry is one entry of an approximate /topk answer: one group of
// the epoch's level-1 sufficient closure. Count is its exact accumulated
// weight, so Lower == Count and Err == 0; the interval fields stay on
// the wire for clients that gate on them. The weight is a lower bound on
// the weight of the final group mode=exact reports for the same records,
// because deeper levels and the scorer only merge.
type ApproxEntry struct {
	// Rep is the group's representative: its heaviest member record.
	Rep int `json:"rep"`
	// Count is the group's level-1 closure weight.
	Count float64 `json:"count"`
	// Lower equals Count.
	Lower float64 `json:"lower"`
	// Err is always 0.
	Err float64 `json:"err"`
}

// ApproxTopKResponse is the GET /topk?mode=approx|hybrid body: the k
// heaviest level-1 closure groups of the named epoch.
type ApproxTopKResponse struct {
	// K echoes the query parameter.
	K int `json:"k"`
	// Mode is the serving mode that produced this body.
	Mode string `json:"mode"`
	// SnapshotSeq identifies the epoch the answer was read from.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Records is the record count of that epoch.
	Records int `json:"records"`
	// MaxErr is the largest Err across the returned entries: always 0,
	// the same number the X-Approx-Bound header carries.
	MaxErr float64 `json:"max_err"`
	// Entries are the top-k groups, weight descending, ties by ascending
	// Rep.
	Entries []ApproxEntry `json:"entries"`
	// Exact reports the exact tier's state in hybrid mode: "cached"
	// when the epoch answer cache already holds the exact answer for
	// (k, r), "refreshing" otherwise. Empty in approx mode.
	Exact string `json:"exact,omitempty"`
	// TraceID names the query's trace (fetch the span tree from
	// /debug/traces?trace=<id>).
	TraceID string `json:"trace_id,omitempty"`
}

// XApproxBound is the response header carrying the served answer's
// largest per-entry error bound (always 0), so clients that gate on
// answer quality need not parse the body.
const XApproxBound = "X-Approx-Bound"

func (s *Server) handleApprox(w http.ResponseWriter, r *http.Request, mode string, k, rr int) {
	ep := s.epoch.Load()
	_, root := s.traceCtx(r, "server.approx")
	root.Attr("k", float64(k))
	groups := ep.snap.Heaviest(k)
	resp := ApproxTopKResponse{
		K: k, Mode: mode, SnapshotSeq: ep.seq, Records: ep.snap.Len(),
		Entries: make([]ApproxEntry, len(groups)), TraceID: root.TraceID().String(),
	}
	for i, g := range groups {
		resp.Entries[i] = ApproxEntry{Rep: g.Rep, Count: g.Weight, Lower: g.Weight}
	}
	if mode == ModeHybrid {
		resp.Exact = s.startHybridExact(ep, resp.Entries, k, rr)
	}
	dur := root.End()
	s.metrics.Count("sketch.serve."+mode, 1)
	s.metrics.Observe("sketch.serve.seconds", dur.Seconds())
	if s.logger != nil {
		s.logger.Info("approx topk query", "k", k, "mode", mode, "snapshot_seq", ep.seq,
			"seconds", dur.Seconds(), "trace", resp.TraceID)
	}
	w.Header().Set(XApproxBound, "0")
	writeJSON(w, http.StatusOK, resp)
}

// startHybridExact arranges for the exact (k, r) answer to land in the
// epoch memo without the hybrid request waiting: a hit means it is
// already there, an in-flight identical computation is left alone
// (singleflight), and a miss computes in the background (answer's
// background form). The background computation holds a slot of the pool
// guard admits requests through, taken before the memo entry is
// claimed, so MaxInFlight bounds it like any foreground query; with no
// slot free nothing is claimed or computed (sketch.hybrid.skipped).
// Returns the Exact field value for the response.
func (s *Server) startHybridExact(ep *epoch, served []ApproxEntry, k, rr int) string {
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.Count("sketch.hybrid.skipped", 1)
		return "refreshing"
	}
	key := answerKey{kind: 't', k: k, r: rr}
	_, status, _ := s.answer(context.Background(), ep, key, true, func(ent *answerEntry) (err error) {
		defer func() { <-s.sem }()
		ent.topk, err = s.computeExact(context.Background(), ep, k, rr, false)
		s.metrics.Count("sketch.hybrid.refreshed", 1)
		if err == nil {
			s.observeHybridError(served, ent.topk)
		}
		return err
	})
	if status != cacheMiss { // nothing started: the slot goes back
		<-s.sem
	}
	if status == cacheHit {
		return "cached"
	}
	return "refreshing"
}

// observeHybridError records, for every served entry whose
// representative is in a group of the exact answer, how much weight the
// deeper levels and the scorer added on top of the served level-1
// weight: final exact weight − served weight
// (sketch.hybrid.observed_error) — the measured answer to "how far is
// mode=approx from mode=exact" that SERVING.md cites.
func (s *Server) observeHybridError(served []ApproxEntry, res *topk.Result) {
	if len(res.Answers) == 0 {
		return
	}
	final := make(map[int]float64)
	for _, g := range res.Answers[0].Groups {
		for _, id := range g.Records {
			final[id] = g.Weight
		}
	}
	for _, e := range served {
		if exact, ok := final[e.Rep]; ok {
			s.metrics.Observe("sketch.hybrid.observed_error", exact-e.Count)
		}
	}
}
