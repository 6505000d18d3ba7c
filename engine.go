package topk

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"topkdedup/internal/core"
	"topkdedup/internal/embed"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/rankquery"
	"topkdedup/internal/score"
	"topkdedup/internal/segment"
)

// Config tunes the engine. The zero value is the paper's engine: answers
// score by the sum over the groupings supporting them (§5), every other
// constant of the algorithm is fixed, and only where the work runs and
// what it reports are settable.
type Config struct {
	// Workers bounds the worker pool used for predicate evaluation and
	// pair scoring in bound estimation, prune and the final phase's
	// candidate scoring; the sufficient-predicate collapse is serial
	// (core.Insert's union-find is its schedule). <= 0 (the default)
	// means all CPUs; 1 runs fully serial. Results are byte-identical at
	// every worker count. When Workers != 1 the predicates and scorer
	// must be safe for concurrent use — the built-in domains are (they
	// share a strsim.NewSharedCache); custom predicates built over
	// strsim.NewCache must either switch to NewSharedCache or set
	// Workers to 1.
	Workers int
	// Metrics, when non-nil, receives per-phase metrics and spans from
	// every query this engine answers (see OBSERVABILITY.md for the name
	// registry; obs.Collector aggregates in memory). Metrics are
	// observational only: results are byte-identical with or without a
	// sink, at every Workers count. The default nil sink costs nothing.
	Metrics MetricsSink
	// Tracer, when non-nil, records a causal span tree for every query
	// this engine answers (see OBSERVABILITY.md "Trace model"): each
	// TopK/TopKRank call becomes one trace whose spans cover the
	// per-level collapse/bound/prune phases, prune passes, and the final
	// scoring steps. Like Metrics it is observational only and byte-
	// identical results are guaranteed at every Workers count; the
	// default nil tracer costs one pointer check per query
	// and zero allocations (guarded by the tracing benchmarks in
	// bench_test.go). When a query arrives with an already-traced
	// context (TopKCtx under a server span), that trace wins and Tracer
	// is not consulted.
	Tracer *Tracer
	// Explain, when true, attaches a per-query EXPLAIN report
	// (Result.Explain) derived from the query's trace: predicate
	// evaluation/hit counts per level, groups collapsed and pruned per
	// Jacobi round, the M lower bound's evolution, and final-phase
	// similarity evaluation counts. If no Tracer is configured an
	// ephemeral single-trace recorder is used, so Explain works
	// standalone.
	Explain bool
}

// Tracer is the span-tree recorder of the tracing layer — an alias of
// the internal obs.Recorder. Create one with NewTracer, assign it to
// Config.Tracer, and read traces back with Traces/Spans or export them
// with obs.WriteChromeTrace.
type Tracer = obs.Recorder

// NewTracer returns a tracer retaining the most recent limit traces
// (<= 0 selects the default ring size).
func NewTracer(limit int) *Tracer { return obs.NewRecorder(limit) }

// ExplainReport is the per-query EXPLAIN report — an alias of the
// internal obs.Explain (see OBSERVABILITY.md "EXPLAIN report schema").
type ExplainReport = obs.Explain

// SpanRecord is one finished trace span as returned by Tracer.Spans —
// an alias of the internal obs.SpanRecord.
type SpanRecord = obs.SpanRecord

// TraceSummary describes one trace retained by a Tracer — an alias of
// the internal obs.TraceSummary.
type TraceSummary = obs.TraceSummary

// WriteChromeTrace writes one trace's spans (as returned by
// Tracer.Spans) as a Chrome trace_event JSON document that
// chrome://tracing and Perfetto load directly.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return obs.WriteChromeTrace(w, spans)
}

// MetricsSink is the observability sink interface of the pipeline — an
// alias of the internal obs.Sink so callers can pass a
// *MetricsCollector or any custom implementation.
type MetricsSink = obs.Sink

// MetricsCollector is the in-memory sink implementation (an alias of
// the internal obs.Collector): it aggregates counters, gauges, and
// log2-bucketed histograms; read it with Snapshot or WriteJSON.
type MetricsCollector = obs.Collector

// NewMetricsCollector returns an empty in-memory metrics sink. Assign
// it to Config.Metrics (and, for pool-level metrics, SetPoolMetrics).
func NewMetricsCollector() *MetricsCollector { return obs.NewCollector() }

// SetPoolMetrics attaches a process-wide sink to the internal worker
// pool: every parallel loop then emits parallel.for_calls and
// parallel.tasks counters plus per-worker busy-time observations. The
// pool is shared by all engines in the process, hence the separate,
// process-wide knob. Pass nil to detach.
func SetPoolMetrics(s MetricsSink) { parallel.SetSink(s) }

// Engine answers TopK queries over one dataset.
type Engine struct {
	data   *Dataset
	levels []Level
	scorer PairScorer
	cfg    Config
}

// New creates an engine. levels must be non-empty. scorer may be nil, in
// which case queries still run but residual ambiguity among the surviving
// groups is not resolved (each survivor is treated as one entity) and R
// is capped at 1.
func New(d *Dataset, levels []Level, scorer PairScorer, cfg Config) *Engine {
	return &Engine{data: d, levels: levels, scorer: scorer, cfg: cfg}
}

// AnswerGroup is one entity group in a TopK answer.
type AnswerGroup struct {
	// Records are the record IDs aggregated into this entity.
	Records []int
	// Weight is the aggregate weight (the count the query ranks by).
	Weight float64
	// Rep is a representative record ID.
	Rep int
}

// Answer is one ranked TopK answer: K groups plus a score.
type Answer struct {
	// Score of the answer: log Σ exp over the supporting groupings the
	// search enumerated. Meaningful only relative to other answers of the
	// same query.
	Score float64
	// Groups are the K answer groups in decreasing weight.
	Groups []AnswerGroup
}

// Probabilities normalises the answers' scores into a probability
// distribution over the returned alternatives (softmax in log space, per
// the paper's "scores can be converted to probabilities through
// appropriate normalisation ... a Gibbs distribution"). The distribution
// is over the R returned answers only — groupings outside them carry the
// unaccounted remainder — so treat it as relative confidence. Returns nil
// when there are no answers.
func (r *Result) Probabilities() []float64 {
	if len(r.Answers) == 0 {
		return nil
	}
	// log-sum-exp over answer scores.
	maxS := r.Answers[0].Score
	for _, a := range r.Answers {
		if a.Score > maxS {
			maxS = a.Score
		}
	}
	var z float64
	for _, a := range r.Answers {
		z += math.Exp(a.Score - maxS)
	}
	probs := make([]float64, len(r.Answers))
	for i, a := range r.Answers {
		probs[i] = math.Exp(a.Score-maxS) / z
	}
	return probs
}

// Result is the output of Engine.TopK.
type Result struct {
	// Answers holds up to R answers, best first.
	Answers []Answer
	// Pruning reports the per-level statistics of the pruning phase.
	Pruning []LevelStats
	// Survivors is the number of collapsed groups that reached the final
	// phase.
	Survivors int
	// Exact reports that pruning alone determined the answer (exactly K
	// groups survived), so Answers has one entry and no scoring ran.
	Exact bool
	// Explain is the per-query EXPLAIN report, present only when
	// Config.Explain is set (or the query ran under a traced context
	// with Config.Explain set). Wall-clock fields vary run to run;
	// strip them with Explain.StripTimings before comparing results.
	Explain *ExplainReport `json:"explain,omitempty"`
}

// TopK answers the TopK count query: the K groups with the largest
// aggregate weight, as the R highest-scoring alternatives.
func (e *Engine) TopK(k, r int) (*Result, error) {
	return e.TopKCtx(context.Background(), k, r)
}

// TopKCtx is TopK under a context. When ctx carries an active trace
// span (a serving handler's), the query's spans join that trace;
// otherwise Config.Tracer (or, for Config.Explain, an ephemeral
// recorder) starts a fresh "engine.topk" trace. An untraced context
// with no tracer configured runs exactly like TopK.
func (e *Engine) TopKCtx(ctx context.Context, k, r int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: K must be >= 1, got %d", k)
	}
	if r < 1 {
		r = 1
	}
	ctx, root := e.startQuery(ctx, e.cfg.Metrics, "engine.topk")
	root.Attr("k", float64(k))
	root.Attr("r", float64(r))
	root.Attr("workers", float64(e.cfg.Workers))
	pd, err := core.PrunedDedupCtx(ctx, e.data, e.levels, e.coreOpts(k))
	if err != nil {
		root.End()
		return nil, err
	}
	res, err := e.finishTopKCtx(ctx, pd, k, r)
	root.End()
	if err != nil {
		return nil, err
	}
	e.attachExplain(res, root)
	return res, nil
}

// startQuery opens the query's phase, timed into sink: a child span
// when ctx is already traced, else the root of a fresh trace on
// Config.Tracer (or an ephemeral recorder when only Config.Explain asks
// for one), else no span at all — the zero-cost path.
func (e *Engine) startQuery(ctx context.Context, sink obs.Sink, name string) (context.Context, obs.Phase) {
	rec := e.cfg.Tracer
	if rec == nil && e.cfg.Explain && !obs.Traced(ctx) {
		rec = obs.NewRecorder(1)
	}
	return rec.Start(ctx, sink, name)
}

// attachExplain derives Result.Explain from the finished query trace
// when Config.Explain asks for it.
func (e *Engine) attachExplain(res *Result, root obs.Phase) {
	if !e.cfg.Explain || !root.Traced() {
		return
	}
	res.Explain = obs.BuildExplain(root.Recorder().Spans(root.TraceID()))
}

// coreOpts assembles the core options of one query from the engine
// configuration.
func (e *Engine) coreOpts(k int) core.Options {
	return core.Options{K: k, Workers: e.cfg.Workers, Sink: e.cfg.Metrics}
}

// finishTopKCtx turns a pruning result into the query answer, running
// the final R-best scoring phase when residual ambiguity remains.
func (e *Engine) finishTopKCtx(ctx context.Context, pd *core.Result, k, r int) (*Result, error) {
	res := &Result{Pruning: pd.Stats, Survivors: len(pd.Groups)}
	if pd.ExactlyK || e.scorer == nil || len(pd.Groups) <= k {
		res.Exact = pd.ExactlyK || len(pd.Groups) <= k
		res.Answers = []Answer{e.groupsToAnswer(pd.Groups, k)}
		return res, nil
	}
	answers, err := e.finalPhase(ctx, pd.Groups, k, r)
	if err != nil {
		return nil, err
	}
	res.Answers = answers
	return res, nil
}

// PrunedResult is the output of the pruning phases — an alias of the
// internal core result, exposed so a pruning computed elsewhere (the
// serving layer's per-epoch snapshots) can be finished into full answers
// with TopKFrom and TopKRankFrom.
type PrunedResult = core.Result

// TopKFrom finishes a TopK query from an externally produced pruning
// result: it runs the final R-best scoring phase over pd's surviving
// groups exactly as TopK would after its own pruning. pd must come from
// the same dataset and levels; the HTTP serving layer, which prunes once
// per (epoch, K), is the intended caller.
func (e *Engine) TopKFrom(pd *PrunedResult, k, r int) (*Result, error) {
	return e.TopKFromCtx(context.Background(), pd, k, r)
}

// TopKFromCtx is TopKFrom under a context, with the same tracing
// behaviour as TopKCtx (the final-phase spans join the context's trace
// — or a fresh one from Config.Tracer — alongside the externally run
// pruning's).
func (e *Engine) TopKFromCtx(ctx context.Context, pd *PrunedResult, k, r int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: K must be >= 1, got %d", k)
	}
	if r < 1 {
		r = 1
	}
	ctx, root := e.startQuery(ctx, e.cfg.Metrics, "engine.topk")
	res, err := e.finishTopKCtx(ctx, pd, k, r)
	root.End()
	if err != nil {
		return nil, err
	}
	e.attachExplain(res, root)
	return res, nil
}

// TopKRankFrom finishes a §7.1 TopK rank query from an externally
// produced pruning result, mirroring TopKFrom for TopKRank.
func (e *Engine) TopKRankFrom(pd *PrunedResult, k int) (*RankResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: K must be >= 1, got %d", k)
	}
	return rankquery.FromPruned(e.data, e.levels, pd, k), nil
}

// groupsToAnswer takes the top-k surviving groups as a single answer.
func (e *Engine) groupsToAnswer(groups []Group, k int) Answer {
	if len(groups) > k {
		groups = groups[:k]
	}
	ans := Answer{}
	for _, g := range groups {
		ans.Groups = append(ans.Groups, AnswerGroup{Records: g.Members, Weight: g.Weight, Rep: g.Rep})
	}
	return ans
}

// finalPhase resolves residual ambiguity among the surviving groups:
// score candidate group pairs with P, embed, and run the R-best
// segmentation search (paper §5). It returns ctx.Err() at each phase
// boundary; the segmentation search itself runs to the end.
func (e *Engine) finalPhase(ctx context.Context, groups []Group, k, r int) ([]Answer, error) {
	fin, err := e.newFinalSearch(ctx, groups, e.cfg.Metrics)
	if err != nil {
		return nil, err
	}
	defer fin.release()
	// Answer generation runs over the R'-best groupings rather than the
	// paper's length-stratified TopR: positions here are collapsed groups
	// with heterogeneous weights, so "largest segments by position count"
	// can exclude the best grouping when lengths tie. Each grouping maps
	// to its K aggregate-weight-largest segments; groupings mapping to the
	// same answer identity merge by log-sum-exp — a truncated
	// approximation of the paper's full marginal, since only the R' best
	// groupings contribute.
	rPrime := 6*r + 10
	_, seg := obs.Start(ctx, e.cfg.Metrics, "engine.final.segment")
	defer seg.End()
	rankings := segment.BestR(fin.sc, rPrime)
	if len(rankings) == 0 {
		return []Answer{e.groupsToAnswer(groups, k)}, nil
	}
	var out []Answer
	index := map[string]int{}
	for _, rk := range rankings {
		ans, sig := e.answerFromWitness(groups, fin.order, segment.Answer{Score: rk.Score - fin.base, Full: rk.Segs}, k)
		if at, ok := index[sig]; ok {
			out[at].Score = logAddExp(out[at].Score, ans.Score)
			continue
		}
		index[sig] = len(out)
		out = append(out, ans)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	if len(out) > r {
		out = out[:r]
	}
	return out, nil
}

// finalSearch is the segmentation search space over a set of groups that
// TopK's final phase and Dedup both search (paper §5.3): P's scores on
// the candidate pairs, the greedy linear embedding, the segment scorer
// over it, and the score of the all-singletons segmentation.
type finalSearch struct {
	fs    *finalScratch
	order []int
	sc    *score.SegmentScorer
	// base is the all-singletons segmentation's score. Subtracting it
	// cancels the partition-independent constant (Eq. 1 rewards every
	// cross negative edge, including the non-candidate penalties): 0
	// means "no merging", positive means merges net-agree with P.
	base float64
	// candidatePairs is how many candidate pairs the scoring considered
	// (engine.final.candidate_pairs).
	candidatePairs int64
}

// newFinalSearch builds the search space over groups. A pair failing the
// last necessary predicate scores score.NonCandidateScore; segments
// span at most score.MaxSegmentWidth groups. The engine.final.score and
// engine.final.embed phases report to sink and to ctx's trace. It returns
// ctx.Err() on entry, after the candidate scoring and after the
// embedding; the caller releases what it returns.
func (e *Engine) newFinalSearch(ctx context.Context, groups []Group, sink obs.Sink) (*finalSearch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(groups)
	lastN := e.levels[len(e.levels)-1].Necessary

	// Candidate group pairs: those passing the last necessary predicate.
	_, sp := obs.Start(ctx, sink, "engine.final.score")
	fs, candidatePairs := e.scoredCandidates(ctx, groups, lastN)
	pairScore, edges := fs.pairScore, fs.edges
	sp.Count("engine.final.candidate_pairs", int64(candidatePairs))
	sp.Count("engine.final.scored_pairs", int64(len(edges)))
	sp.End()
	if err := ctx.Err(); err != nil {
		fs.release()
		return nil, err
	}
	pf := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		if s, ok := pairScore[[2]int{i, j}]; ok {
			return s
		}
		return score.NonCandidateScore
	}

	_, em := obs.Start(ctx, sink, "engine.final.embed")
	order := embed.Greedy(n, pf, edges)
	em.End()
	if err := ctx.Err(); err != nil {
		fs.release()
		return nil, err
	}
	posPF := func(pi, pj int) float64 { return pf(order[pi], order[pj]) }
	sc := score.NewSegmentScorer(n, score.MaxSegmentWidth, posPF, nil)
	var base float64
	for p := 0; p < n; p++ {
		base += sc.Score(p, p)
	}
	return &finalSearch{fs: fs, order: order, sc: sc, base: base, candidatePairs: int64(candidatePairs)}, nil
}

// release returns the search's pooled tables and scratch.
func (f *finalSearch) release() {
	f.sc.Release()
	f.fs.release()
}

// finalScratch holds the final phase's per-query buffers — the key-id
// inversion, candidate pair list, score slots, embedding edges, and the
// pair-score map — pooled across queries so a serving process answering
// a stream of TopK queries stops re-growing them. A scratch is owned by
// one query at a time: scoredCandidates acquires it, finalSearch.release
// returns it (after the embedding and the segment scorer have read the
// map).
type finalScratch struct {
	keyIDs    [][]uint32
	cands     []scoredPair
	slots     []pairSlot
	edges     []embed.Edge
	pairScore map[[2]int]float64
}

type scoredPair struct{ i, j int32 }

type pairSlot struct {
	s  float64
	ok bool
}

var finalScratchPool = sync.Pool{New: func() any {
	return &finalScratch{pairScore: make(map[[2]int]float64)}
}}

// release clears the scratch's per-query contents (keeping capacity) and
// returns it to the pool.
func (fs *finalScratch) release() {
	clear(fs.pairScore)
	fs.cands = fs.cands[:0]
	fs.slots = fs.slots[:0]
	fs.edges = fs.edges[:0]
	finalScratchPool.Put(fs)
}

// scoredCandidates enumerates the candidate group pairs — those sharing a
// blocking key and passing the last necessary predicate — and scores each
// with P, returning a pooled scratch holding the pair-score map and the
// embedding edges (the caller releases it when done). The pair walk runs
// over core.BlockReps' index in its fixed order (item-major, keys in
// Keys() order). The pairs are buffered serially, evaluated and scored
// in parallel (one result slot per pair), and folded back into the map
// in enumeration order, so the output is identical at every
// Config.Workers value. It also returns the candidate-pair count (the
// final phase's similarity-evaluation budget) for the EXPLAIN report.
func (e *Engine) scoredCandidates(ctx context.Context, groups []Group, lastN Predicate) (*finalScratch, int) {
	fs := finalScratchPool.Get().(*finalScratch)
	ix := core.BlockReps(e.data, groups, lastN, fs.keyIDs)
	fs.keyIDs = ix.KeyIDs()
	gate := core.BindReps(e.data, groups, lastN, nil)
	ix.ForEachPair(func(i, j int) bool {
		fs.cands = append(fs.cands, scoredPair{int32(i), int32(j)})
		return true
	})
	cands := fs.cands
	if cap(fs.slots) < len(cands) {
		fs.slots = make([]pairSlot, len(cands))
	}
	fs.slots = fs.slots[:len(cands)]
	slots := fs.slots
	for t := range slots {
		slots[t] = pairSlot{}
	}
	parallel.ForCtx(ctx, e.cfg.Workers, len(cands), func(t int) {
		c := cands[t]
		if !gate(int(c.i), int(c.j)) {
			return
		}
		// Scale by the product of member counts, approximating the
		// aggregate score over all cross-member pairs (§4.1's closing
		// remark).
		s := e.scorer.Score(e.data.Recs[groups[c.i].Rep], e.data.Recs[groups[c.j].Rep])
		s *= float64(len(groups[c.i].Members) * len(groups[c.j].Members))
		slots[t] = pairSlot{s: s, ok: true}
	})
	for t, c := range cands {
		if !slots[t].ok {
			continue
		}
		fs.pairScore[[2]int{int(c.i), int(c.j)}] = slots[t].s
		fs.edges = append(fs.edges, embed.Edge{A: int(c.i), B: int(c.j)})
	}
	return fs, len(cands)
}

func logAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// answerFromWitness converts one DP answer into the query's answer form:
// the K aggregate-weight-largest segments of the witness grouping, with a
// canonical signature for deduplication. Segments rank on their summed
// weights alone; only the K kept get their member lists built.
func (e *Engine) answerFromWitness(groups []Group, order []int, sa segment.Answer, k int) (Answer, string) {
	type segRank struct {
		weight   float64
		rep, pos int
	}
	ranked := make([]segRank, len(sa.Full))
	for si, seg := range sa.Full {
		r := segRank{pos: si}
		bestW := -1.0
		for p := seg.Start; p <= seg.End; p++ {
			g := groups[order[p]]
			r.weight += g.Weight
			if g.Weight > bestW {
				bestW, r.rep = g.Weight, g.Rep
			}
		}
		ranked[si] = r
	}
	slices.SortFunc(ranked, func(a, b segRank) int {
		switch {
		case a.weight > b.weight:
			return -1
		case a.weight < b.weight:
			return 1
		}
		return a.pos - b.pos
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	ans := Answer{Score: sa.Score}
	var sig strings.Builder
	for _, r := range ranked {
		seg := sa.Full[r.pos]
		size := 0
		for p := seg.Start; p <= seg.End; p++ {
			size += len(groups[order[p]].Members)
		}
		ag := AnswerGroup{Records: make([]int, 0, size), Weight: r.weight, Rep: r.rep}
		for p := seg.Start; p <= seg.End; p++ {
			ag.Records = append(ag.Records, groups[order[p]].Members...)
		}
		sort.Ints(ag.Records)
		ans.Groups = append(ans.Groups, ag)
		// Identity must reflect the exact record set: rep+size alone can
		// collide when two candidate groupings swap equal-sized members.
		h := fnv.New64a()
		var buf [8]byte
		for _, id := range ag.Records {
			binary.LittleEndian.PutUint64(buf[:], uint64(id))
			h.Write(buf[:])
		}
		fmt.Fprintf(&sig, "|%d:%d:%x", ag.Rep, len(ag.Records), h.Sum64())
	}
	return ans, sig.String()
}

// RankEntry is one entry of a rank-query result.
type RankEntry = rankquery.Entry

// RankResult is the result of TopKRank and ThresholdedRank.
type RankResult = rankquery.RankResult

// TopKRank answers the TopK rank query (paper §7.1): the ranked order of
// the K largest groups, each identified by a canonical member, without
// resolving exact sizes. The rank-specific resolved-group pruning applies
// on top of the standard TopK pruning.
func (e *Engine) TopKRank(k int) (*RankResult, error) {
	return e.TopKRankCtx(context.Background(), k)
}

// TopKRankCtx is TopKRank under a context, with the same tracing
// behaviour as TopKCtx: the query runs under an "engine.rank" root span
// (or joins the context's trace) with the pruning's core.* spans beneath
// it.
func (e *Engine) TopKRankCtx(ctx context.Context, k int) (*RankResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: K must be >= 1, got %d", k)
	}
	// No engine.rank.seconds row: the phase times the span only.
	ctx, root := e.startQuery(ctx, nil, "engine.rank")
	root.Attr("k", float64(k))
	root.Attr("workers", float64(e.cfg.Workers))
	defer root.End()
	pd, err := core.PrunedDedupCtx(ctx, e.data, e.levels, e.coreOpts(k))
	if err != nil {
		return nil, err
	}
	return rankquery.FromPruned(e.data, e.levels, pd, k), nil
}

// ThresholdedRank answers the thresholded rank query (paper §7.2): a
// ranked list of the groups with aggregate weight above t.
func (e *Engine) ThresholdedRank(t float64) (*RankResult, error) {
	opts := e.coreOpts(0)
	opts.Threshold = t
	return rankquery.ThresholdedRank(context.Background(), e.data, e.levels, opts)
}
