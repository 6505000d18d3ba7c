package core

import (
	"context"
	"sort"
	"time"

	"topkdedup/internal/index"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Prune implements §4.3: drop every group whose weight upper bound — the
// most it could aggregate by merging with necessary-predicate neighbours —
// falls below the lower bound M. Bounds are tightened in three stages:
//
//  0. A free over-approximation from the inverted index: a group's
//     neighbour weight is at most Σ over its blocking keys of
//     (bucket total − own weight). This never under-counts (it only
//     multi-counts neighbours sharing several keys), so pruning on it is
//     safe, and it eliminates the bulk of the tail without a single
//     predicate evaluation.
//  1. Exact N-neighbour sums for the remaining groups.
//  2. (and further passes) The paper's recursive refinement: only
//     neighbours whose own bound still reaches M contribute. The paper
//     reports two passes roughly double the pruning of one and further
//     passes add little; passes configures the count of exact passes.
//
// Groups whose weight already reaches M are never pruned. When M <= 0 the
// input is returned unchanged. Pruning keeps ties (bound == M) alive so
// answers tying with the K-th group are not lost.
//
// Serial entry point: PruneCtx with one worker, no trace and no sink.
func Prune(d *records.Dataset, groups []Group, n predicate.P, m float64, passes int) (alive []Group, evals int64) {
	alive, evals, _ = PruneCtx(context.Background(), d, groups, n, m, passes, 1, nil)
	return alive, evals
}

// PruneCtx is Prune with the exact refinement passes spread over a
// worker pool (workers <= 0 means all CPUs, 1 is serial), under a
// context and with an optional observability sink. Each exact pass is a
// Jacobi update — every group's new bound reads only the previous pass's
// bounds and liveness, so the per-group computations are independent and
// the survivor set, bounds, and eval counter are identical for every
// worker count. n.Eval must be safe for concurrent use when workers != 1.
//
// It additionally returns the necessary-predicate hit count (confirmed
// neighbours across all passes) and, when ctx carries a trace span,
// wraps the phase in a "core.prune" child span (with a
// "core.prune.stage0" span around the serial evaluation-free cascades and
// one "core.prune.pass" span per Jacobi round) annotated with the counts
// the EXPLAIN report renders. An untraced context costs one nil check.
//
// When sink is non-nil it receives the evaluation-free stage-0 kill
// count (core.prune.stage0.pruned) and, for each exact refinement pass,
// the pairs evaluated, groups pruned, and wall time
// (core.prune.pass.{evals,pruned,seconds}); the bound M the passes
// compare against is emitted as the core.prune.bound gauge. Emission is
// per phase and per pass, never per pair, and the sink is observational
// only: survivors, bounds, and the eval counter are byte-identical with
// or without it, at every worker count.
//
// Internally this drives a Pruner: construction runs the evaluation-free
// cascades, then one PassCtx per exact refinement round until a pass kills
// nothing. The sharded coordinator drives the same Pruner pass-by-pass
// across shards so the stop decision ("no group died anywhere") is taken
// globally, which is what keeps sharded survivors byte-identical to this
// single-machine loop.
func PruneCtx(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, m float64, passes, workers int, sink obs.Sink) (alive []Group, evals, hits int64) {
	return pruneCtx(ctx, d, groups, n, func() *index.IDIndex { return BlockReps(d, groups, n, nil) }, m, passes, workers, sink)
}

// pruneCtx is PruneCtx with the groups' blocking index under n supplied
// by block, which is called only when something can be pruned — a
// PreparedLevel hands in the index it keeps.
func pruneCtx(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, block func() *index.IDIndex, m float64, passes, workers int, sink obs.Sink) (alive []Group, evals, hits int64) {
	if m <= 0 || len(groups) == 0 {
		return groups, 0, 0
	}
	if passes < 1 {
		passes = 2
	}
	ctx, sp := obs.StartChild(ctx, "core.prune")
	p := newPruner(ctx, d, groups, n, block(), m, workers, sink)
	for pass := 0; pass < passes; pass++ {
		pruned, passEvals, passHits := p.PassCtx(ctx)
		evals += passEvals
		hits += passHits
		if pruned == 0 {
			break
		}
	}
	alive = p.Alive()
	if sp != nil {
		sp.Attr("m", m)
		sp.Attr("evals", float64(evals))
		sp.Attr("hits", float64(hits))
		sp.Attr("stage0_pruned", float64(p.Stage0Pruned()))
		sp.Attr("survivors", float64(len(alive)))
		sp.End()
	}
	return alive, evals, hits
}

// Pruner is the stateful form of the §4.3 prune step. NewPruner runs the
// evaluation-free stage-0 cascades; each PassCtx then performs one exact
// Jacobi refinement round, and Alive returns the surviving groups in
// their input order. PruneCtx composes these into the
// single-machine loop (pass until nothing dies, capped at the configured
// pass count); the sharded coordinator instead interleaves PassCtx calls
// across shards, because a pass with no local kills does not mean the
// global fixpoint is reached — a later global pass can tighten a
// neighbour's bound on another shard and come back to kill here. A
// Pruner is not safe for concurrent use.
type Pruner struct {
	groups []Group
	// eval is n bound to the stage-0 survivors' representatives; its third
	// argument is the number of blocking keys the pair shares, which the
	// pass's candidate walk counts anyway (BindRepsCounted).
	eval    func(i, j, shared int) bool
	m       float64
	workers int
	sink    obs.Sink

	// ix indexes the groups by n's blocking keys (BlockReps); keyIDs is
	// its per-group id lists. Everything below is a buffer retained
	// across rounds and passes: totals (one slot per key id) backs the
	// stage-0 bucket sums, s0stamp/s0cand the stage-0.5 candidate walks,
	// next the Jacobi bound snapshot, scratches one walk state per pool
	// worker — so the stage-0 cascades and each pass allocate nothing in
	// steady state.
	ix           *index.IDIndex
	keyIDs       [][]uint32
	u            []float64
	next         []float64
	live         []bool
	totals       []float64
	s0stamp      *index.Stamp
	s0cand       []int32
	scratches    []pruneScratch
	evalCount    []int64
	hitCount     []int64
	die          []bool
	stage0Pruned int
	stage0Rounds int // cascade rounds the last RescanStage0 ran, both stages
	passNum      int
}

// pruneScratch is one worker's walk state: count is
// index.CandidatesCounted's per-group key count (all zero between
// groups), cand the walk's result, gated the candidates that passed the
// gate.
type pruneScratch struct {
	count       []int32
	cand, gated []int32
}

// NewPruner builds the prune state for bound m (must be > 0; callers
// handle m <= 0 and empty group lists as "nothing prunable") and runs
// the evaluation-free stages: the iterated bucket-total
// over-approximation (stage 0) and the deduplicated candidate-weight
// cascade (stage 0.5). When sink is non-nil it receives the
// core.prune.bound gauge and the combined stage-0 kill count
// (core.prune.stage0.pruned), exactly as PruneCtx documents. The
// construction is untraced; PruneCtx's is not.
func NewPruner(d *records.Dataset, groups []Group, n predicate.P, m float64, workers int, sink obs.Sink) *Pruner {
	return newPruner(context.Background(), d, groups, n, BlockReps(d, groups, n, nil), m, workers, sink)
}

// newPruner is NewPruner over ix = BlockReps(d, groups, n, nil), which
// it only reads: one index may back any number of Pruners at once. A
// traced ctx gets a "core.prune.stage0" child span around the serial
// cascades — the part of the phase no worker count shortens.
func newPruner(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, ix *index.IDIndex, m float64, workers int, sink obs.Sink) *Pruner {
	obs.Gauge(sink, "core.prune.bound", m)
	ng := len(groups)
	p := &Pruner{groups: groups, m: m, workers: workers, sink: sink, ix: ix}
	p.keyIDs = p.ix.KeyIDs()
	p.u = make([]float64, ng)
	p.next = make([]float64, ng)
	p.live = make([]bool, ng)
	p.totals = make([]float64, p.ix.KeySpace())
	p.s0stamp = index.NewStamp(ng)
	_, sp := obs.StartChild(ctx, "core.prune.stage0")
	p.RescanStage0()
	if sp != nil {
		sp.Attr("pruned", float64(p.stage0Pruned))
		sp.Attr("rounds", float64(p.stage0Rounds))
		sp.End()
	}
	obs.Observe(sink, "core.prune.stage0.pruned", float64(p.stage0Pruned))
	// The exact passes compare only groups the cascades left alive —
	// usually a small part of the list. (A later RescanStage0 restores
	// this same set: it reads only the groups, m and the round cap.)
	p.eval = BindRepsCounted(d, groups, n, p.live)
	p.scratches = make([]pruneScratch, parallel.Resolve(workers))
	for w := range p.scratches {
		p.scratches[w].count = make([]int32, ng)
	}
	p.evalCount = make([]int64, ng)
	p.hitCount = make([]int64, ng)
	p.die = make([]bool, ng)
	return p
}

// RescanStage0 resets liveness and bounds and re-runs the evaluation-free
// stage-0 cascades from scratch: the iterated bucket-total
// over-approximation (stage 0) followed by the deduplicated
// candidate-weight cascade (stage 0.5). NewPruner calls it once during
// construction; it is exported so the scan cost can be measured in
// isolation (BenchmarkStage0Prune) and re-run after external bound
// changes. The scan reuses every buffer the Pruner retains and allocates
// nothing in steady state — TestStage0PruneNoAllocs pins it at 0
// allocs/op. Always serial, so it contributes the same state at every
// worker count.
func (p *Pruner) RescanStage0() {
	groups, m := p.groups, p.m
	for i := range p.live {
		p.live[i] = true
	}
	p.stage0Rounds = 0

	// Stage 0: bucket-total over-approximation, iterated to a fixpoint-ish
	// state. Each round recomputes bucket totals over the still-alive
	// groups only, so pruning one round's tail tightens the next round's
	// bounds without a single predicate evaluation. (A single round is
	// far too loose for high-frequency blocking keys such as common
	// 3-grams, whose bucket totals dwarf any real neighbourhood.) The
	// totals live in a dense reused slice indexed by key id — no map, no
	// per-round allocation.
	for round := 0; round < prunePass0Rounds; round++ {
		p.stage0Rounds++
		clear(p.totals)
		for i := range groups {
			if !p.live[i] {
				continue
			}
			for _, k := range p.keyIDs[i] {
				p.totals[k] += groups[i].Weight
			}
		}
		changed := false
		for i := range groups {
			if !p.live[i] {
				continue
			}
			w := groups[i].Weight
			ub := w
			for _, k := range p.keyIDs[i] {
				ub += p.totals[k] - w
			}
			p.u[i] = ub
			if ub < m {
				p.live[i] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Stage 0.5: iterate the *deduplicated* candidate-weight bound — the
	// exact neighbourhood weight an evaluation pass could at most confirm
	// — to a fixpoint, still without a single predicate evaluation. It is
	// much tighter than the bucket totals (no multi-counting across
	// shared keys) and each kill cascades into the next round.
	for round := 0; round < 4; round++ {
		p.stage0Rounds++
		changed := false
		for i := range groups {
			if !p.live[i] {
				continue
			}
			w := groups[i].Weight
			if w >= m {
				continue
			}
			p.s0cand = p.ix.Candidates(i, p.keyIDs[i], p.s0stamp, p.s0cand[:0])
			total := w
			for _, j32 := range p.s0cand {
				j := int(j32)
				if !p.live[j] || (groups[j].Weight < m && p.u[j] < m) {
					continue
				}
				total += groups[j].Weight
				if total >= m {
					break
				}
			}
			if total < p.u[i] {
				p.u[i] = total
			}
			if total < m {
				p.live[i] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	p.stage0Pruned = 0
	for _, ok := range p.live {
		if !ok {
			p.stage0Pruned++
		}
	}
}

// Stage0Pruned returns how many groups the evaluation-free stage-0
// cascades killed during construction.
func (p *Pruner) Stage0Pruned() int { return p.stage0Pruned }

// Alive returns the surviving groups in their input order.
func (p *Pruner) Alive() []Group {
	alive := make([]Group, 0, len(p.groups))
	for i, ok := range p.live {
		if ok {
			alive = append(alive, p.groups[i])
		}
	}
	return alive
}

// PassCtx runs one exact refinement pass with the previous pass's bounds
// (a Jacobi update over both bounds and liveness — the pass reads the
// stored bounds and liveness as frozen snapshots and publishes new ones,
// so the per-group computations are independent and the pass
// parallelises). It returns how many groups the pass killed, how many
// candidate pairs it evaluated and how many of those were confirmed
// neighbours; when the Pruner was built with a sink, the pass also emits
// core.prune.pass.{evals,pruned,seconds}, and when ctx carries a trace
// span it is wrapped in a "core.prune.pass" child span annotated with
// the round number and its eval/hit/pruned counts (an untraced context
// costs one nil check).
//
// Two observations keep the necessary-predicate join far below a full
// canopy enumeration:
//
//   - every bound is only ever compared against M (survive: ub >= M;
//     gate a neighbour: u_j >= M), so the neighbour sum of a group can
//     stop the moment it crosses M — when M is small, almost every
//     group certifies survival after a couple of confirmed neighbours;
//   - when M is large, the evaluation-free cascades have already killed
//     the tail, so only a small live set enumerates at all.
//
// Early-stopped bounds are stored as exactly M ("at least M"), which
// keeps both comparisons truthful.
func (p *Pruner) PassCtx(ctx context.Context) (pruned int, evals, hits int64) {
	p.passNum++
	ctx, sp := obs.StartChild(ctx, "core.prune.pass")
	groups, m := p.groups, p.m
	passStart := time.Time{}
	if p.sink != nil {
		passStart = time.Now()
	}
	next := p.next // retained snapshot buffer; swapped with u at pass end
	copy(next, p.u)
	for i := range p.evalCount {
		p.evalCount[i] = 0
		p.hitCount[i] = 0
		p.die[i] = false
	}
	parallel.ForWorkerCtx(ctx, p.workers, len(groups), func(wk, i int) {
		if !p.live[i] {
			return
		}
		w := groups[i].Weight
		if w >= m {
			return // survives on its own weight; gates stay valid
		}
		sc := &p.scratches[wk]
		// Gate candidates and total their weight without evaluating:
		// the deduplicated candidate total is itself an upper bound,
		// so a group whose total cannot reach M dies evaluation-free.
		// The walk also leaves, per candidate, how many of i's keys it
		// shares — all a count-form predicate needs for its verdict.
		sc.cand = p.ix.CandidatesCounted(i, p.keyIDs[i], sc.count, sc.cand[:0])
		sc.gated = sc.gated[:0]
		remaining := 0.0
		for _, j32 := range sc.cand {
			j := int(j32)
			if !p.live[j] || (groups[j].Weight < m && p.u[j] < m) {
				continue
			}
			sc.gated = append(sc.gated, j32)
			remaining += groups[j].Weight
		}
		ub := w
		if w+remaining >= m {
			// Heaviest candidates first: confirmations cross M soonest
			// and failed evaluations shrink `remaining` fastest. The
			// sort only pays off near the survive/die boundary; far
			// above it a handful of evaluations settles the group
			// anyway, and sorting thousands of candidates per group
			// would dominate the pass.
			gated := sc.gated
			if w+remaining < 4*m || len(gated) < 64 {
				sort.Slice(gated, func(a, b int) bool {
					return groups[gated[a]].Weight > groups[gated[b]].Weight
				})
			}
			for _, j32 := range gated {
				j := int(j32)
				p.evalCount[i]++
				if p.eval(i, j, int(sc.count[j])) {
					p.hitCount[i]++
					ub += groups[j].Weight
					if ub >= m {
						ub = m // "at least M": survival certain
						break
					}
				} else {
					remaining -= groups[j].Weight
					if ub+remaining < m {
						break // cannot reach M any more
					}
				}
			}
		}
		index.ClearCounts(sc.count, sc.cand)
		next[i] = ub
		if ub < m {
			p.die[i] = true
		}
	})
	// Deterministic reduction: fold counters and liveness in index
	// order on the calling goroutine.
	for i := range groups {
		evals += p.evalCount[i]
		hits += p.hitCount[i]
		if p.die[i] {
			p.live[i] = false
			pruned++
		}
	}
	if p.sink != nil {
		obs.Observe(p.sink, "core.prune.pass.evals", float64(evals))
		obs.Observe(p.sink, "core.prune.pass.pruned", float64(pruned))
		obs.ObserveSince(p.sink, "core.prune.pass", passStart)
	}
	if sp != nil {
		sp.Attr("round", float64(p.passNum))
		sp.Attr("evals", float64(evals))
		sp.Attr("hits", float64(hits))
		sp.Attr("pruned", float64(pruned))
		sp.End()
	}
	p.u, p.next = next, p.u
	return pruned, evals, hits
}

// prunePass0Rounds caps the evaluation-free bucket-total refinement
// rounds. A variable so TestPass0RoundsAblation can contrast a single
// round with the full cascade (the E7 claim).
var prunePass0Rounds = 6
