package obs

import (
	"fmt"
	"io"
	"sort"
)

// EXPLAIN: a per-query report derived from the query's trace. The
// pipeline's phases annotate their spans with the counts the paper's
// analysis cares about — sufficient/necessary predicate evaluations and
// hits, groups collapsed and pruned per Jacobi round, the M lower
// bound's evolution per exchange block, similarity evaluations in the
// final phase — and BuildExplain folds one trace's spans into this
// structured summary. It is served as `GET /topk?explain=1`, embedded
// in topk.Result by topk.Config.Explain, and printed by
// `dedupcli -explain`.

// Explain is the per-query EXPLAIN report.
type Explain struct {
	// Trace is the query's trace ID; fetch the full span tree from
	// /debug/traces?trace=<id>.
	Trace string `json:"trace"`
	// Name is the root span ("engine.topk", "server.topk", ...).
	Name string `json:"name"`
	// Seconds is the root span's wall time.
	Seconds float64 `json:"seconds"`
	// Levels is the per-predicate-level pipeline breakdown.
	Levels []ExplainLevel `json:"levels"`
	// Final is the engine's final scoring phase (absent when pruning
	// alone answered the query or the root is a bare pipeline run).
	Final *ExplainFinal `json:"final,omitempty"`
	// SpanCount is how many spans the trace holds.
	SpanCount int `json:"span_count"`
}

// ExplainLevel summarises one predicate level of Algorithm 2.
type ExplainLevel struct {
	Level int `json:"level"`

	// Collapse: sufficient-predicate evaluations, hits (evaluations
	// that fired and merged), and the group count across the phase.
	CollapseEvals   int64   `json:"collapse_evals"`
	CollapseHits    int64   `json:"collapse_hits"`
	GroupsBefore    int     `json:"groups_before"`
	GroupsAfter     int     `json:"groups_after"`
	CollapseSeconds float64 `json:"collapse_seconds"`

	// Bound: necessary-predicate evaluations/hits spent certifying the
	// lower bound, the certified rank m, the bound M, and M's evolution
	// per scan (exchange) block.
	BoundEvals   int64          `json:"bound_evals"`
	BoundHits    int64          `json:"bound_hits"`
	MRank        int            `json:"m_rank"`
	M            float64        `json:"m"`
	BoundBlocks  []ExplainBlock `json:"m_evolution,omitempty"`
	BoundSeconds float64        `json:"bound_seconds"`

	// Prune: necessary-predicate evaluations/hits of the refinement
	// passes, the evaluation-free stage-0 kill count and how much of
	// PruneSeconds those serial cascades took (the rest runs on the
	// worker pool), each Jacobi round, and the survivors.
	PruneEvals    int64          `json:"prune_evals"`
	PruneHits     int64          `json:"prune_hits"`
	Stage0Pruned  int            `json:"stage0_pruned"`
	Stage0Seconds float64        `json:"stage0_seconds"`
	Rounds        []ExplainRound `json:"prune_rounds,omitempty"`
	Survivors     int            `json:"survivors"`
	PruneSeconds  float64        `json:"prune_seconds"`
}

// ExplainBlock is one step of the M lower bound's evolution: after
// `Scanned` prefix groups, `Independent` of them are in the greedy
// independent set, and M is the weight certified so far (0 until the
// CPN bound reaches K).
type ExplainBlock struct {
	Scanned     int     `json:"scanned"`
	Independent int     `json:"independent"`
	M           float64 `json:"m"`
}

// ExplainRound is one Jacobi prune round (pass): pairs evaluated,
// confirmed-neighbour hits, and groups killed.
type ExplainRound struct {
	Round  int   `json:"round"`
	Evals  int64 `json:"evals"`
	Hits   int64 `json:"hits"`
	Pruned int   `json:"pruned"`
}

// ExplainFinal summarises the engine's final phase (§5): candidate
// pairs from the blocking index, pairs that passed the necessary
// predicate and were scored with the similarity function P, and the
// per-step wall times.
type ExplainFinal struct {
	CandidatePairs int64 `json:"candidate_pairs"`
	// SimilarityEvals is how many pairs the expensive similarity
	// function P scored — the paper's headline saving.
	SimilarityEvals int64   `json:"similarity_evals"`
	ScoreSeconds    float64 `json:"score_seconds"`
	EmbedSeconds    float64 `json:"embed_seconds"`
	SegmentSeconds  float64 `json:"segment_seconds"`
}

// StripTimings zeroes every wall-clock field in place, leaving only the
// deterministic counts — what the differential tests compare across
// worker counts.
func (e *Explain) StripTimings() {
	if e == nil {
		return
	}
	e.Seconds = 0
	for i := range e.Levels {
		e.Levels[i].CollapseSeconds = 0
		e.Levels[i].BoundSeconds = 0
		e.Levels[i].PruneSeconds = 0
		e.Levels[i].Stage0Seconds = 0
	}
	if e.Final != nil {
		e.Final.ScoreSeconds = 0
		e.Final.EmbedSeconds = 0
		e.Final.SegmentSeconds = 0
	}
}

// BuildExplain folds one trace's finished spans (as returned by
// Recorder.Spans) into an Explain report; a trace holding no core.level
// span yields a report with empty Levels.
func BuildExplain(spans []SpanRecord) *Explain {
	if len(spans) == 0 {
		return nil
	}
	e := &Explain{SpanCount: len(spans)}
	byID := make(map[SpanID]*SpanRecord, len(spans))
	children := make(map[SpanID][]*SpanRecord)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	// Root: the earliest span whose parent is absent from the set.
	for i := range spans {
		s := &spans[i]
		if byID[s.Parent] == nil {
			e.Trace = s.Trace.String()
			e.Name = s.Name
			e.Seconds = float64(s.Dur) / 1e9
			break
		}
	}

	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "core.level":
			e.Levels = append(e.Levels, buildLevel(s, children))
		case "engine.final.score":
			if e.Final == nil {
				e.Final = &ExplainFinal{}
			}
			e.Final.CandidatePairs = int64(s.AttrNum("candidate_pairs"))
			e.Final.SimilarityEvals = int64(s.AttrNum("scored_pairs"))
			e.Final.ScoreSeconds = float64(s.Dur) / 1e9
		case "engine.final.embed":
			if e.Final == nil {
				e.Final = &ExplainFinal{}
			}
			e.Final.EmbedSeconds = float64(s.Dur) / 1e9
		case "engine.final.segment":
			if e.Final == nil {
				e.Final = &ExplainFinal{}
			}
			e.Final.SegmentSeconds = float64(s.Dur) / 1e9
		}
	}
	sort.Slice(e.Levels, func(i, j int) bool { return e.Levels[i].Level < e.Levels[j].Level })
	return e
}

// buildLevel folds one level span and its phase children.
func buildLevel(level *SpanRecord, children map[SpanID][]*SpanRecord) ExplainLevel {
	el := ExplainLevel{Level: int(level.AttrNum("level"))}
	for _, ph := range children[level.ID] {
		switch ph.Name {
		case "core.collapse":
			el.CollapseEvals = int64(ph.AttrNum("evals"))
			el.CollapseHits = int64(ph.AttrNum("hits"))
			el.GroupsBefore = int(ph.AttrNum("groups_before"))
			el.GroupsAfter = int(ph.AttrNum("groups_after"))
			el.CollapseSeconds = float64(ph.Dur) / 1e9
		case "core.bound":
			el.BoundEvals = int64(ph.AttrNum("evals"))
			el.BoundHits = int64(ph.AttrNum("hits"))
			el.MRank = int(ph.AttrNum("m_rank"))
			el.M = ph.AttrNum("m")
			el.BoundSeconds = float64(ph.Dur) / 1e9
			for _, ev := range ph.Events {
				if ev.Name != "bound.block" {
					continue
				}
				blk := ExplainBlock{}
				for _, a := range ev.Attrs {
					switch a.Key {
					case "scanned":
						blk.Scanned = int(a.Num)
					case "independent":
						blk.Independent = int(a.Num)
					case "m":
						blk.M = a.Num
					}
				}
				el.BoundBlocks = append(el.BoundBlocks, blk)
			}
		case "core.prune":
			el.PruneEvals = int64(ph.AttrNum("evals"))
			el.PruneHits = int64(ph.AttrNum("hits"))
			el.Stage0Pruned = int(ph.AttrNum("stage0_pruned"))
			el.Survivors = int(ph.AttrNum("survivors"))
			el.PruneSeconds = float64(ph.Dur) / 1e9
			for _, rd := range children[ph.ID] {
				switch rd.Name {
				case "core.prune.stage0":
					el.Stage0Seconds = float64(rd.Dur) / 1e9
				case "core.prune.pass":
					el.Rounds = append(el.Rounds, ExplainRound{
						Round:  int(rd.AttrNum("round")),
						Evals:  int64(rd.AttrNum("evals")),
						Hits:   int64(rd.AttrNum("hits")),
						Pruned: int(rd.AttrNum("pruned")),
					})
				}
			}
			sort.Slice(el.Rounds, func(i, j int) bool { return el.Rounds[i].Round < el.Rounds[j].Round })
		}
	}
	return el
}

// WriteText renders the report for terminals (dedupcli -explain).
func (e *Explain) WriteText(w io.Writer) {
	if e == nil {
		fmt.Fprintln(w, "no explain data (query ran untraced)")
		return
	}
	fmt.Fprintf(w, "EXPLAIN %s  trace=%s  %.3fs  (%d spans)\n", e.Name, e.Trace, e.Seconds, e.SpanCount)
	for _, l := range e.Levels {
		fmt.Fprintf(w, "level %d\n", l.Level)
		fmt.Fprintf(w, "  collapse: %d -> %d groups  evals=%d hits=%d  %.3fs\n",
			l.GroupsBefore, l.GroupsAfter, l.CollapseEvals, l.CollapseHits, l.CollapseSeconds)
		fmt.Fprintf(w, "  bound:    M=%g at rank m=%d  evals=%d hits=%d  blocks=%d  %.3fs\n",
			l.M, l.MRank, l.BoundEvals, l.BoundHits, len(l.BoundBlocks), l.BoundSeconds)
		fmt.Fprintf(w, "  prune:    stage0=%d (%.3fs serial)  survivors=%d  evals=%d hits=%d  %.3fs\n",
			l.Stage0Pruned, l.Stage0Seconds, l.Survivors, l.PruneEvals, l.PruneHits, l.PruneSeconds)
		for _, r := range l.Rounds {
			fmt.Fprintf(w, "    round %d: evals=%d hits=%d pruned=%d\n", r.Round, r.Evals, r.Hits, r.Pruned)
		}
	}
	if e.Final != nil {
		fmt.Fprintf(w, "final: candidate_pairs=%d similarity_evals=%d  score=%.3fs embed=%.3fs segment=%.3fs\n",
			e.Final.CandidatePairs, e.Final.SimilarityEvals,
			e.Final.ScoreSeconds, e.Final.EmbedSeconds, e.Final.SegmentSeconds)
	}
}
