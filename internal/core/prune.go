package core

import (
	"context"
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
// nothing.
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
// their input order. PruneCtx composes these into the loop (pass until
// nothing dies, capped at the configured pass count). A Pruner is not
// safe for concurrent use.
type Pruner struct {
	groups []Group
	// eval is n bound to the stage-0 survivors' representatives and need
	// their count filters (BindRepsNeed): the pass evaluates a pair when
	// its shared-key count reaches the smaller need.
	eval    func(i, j int) bool
	need    []int32
	m       float64
	workers int
	sink    obs.Sink

	// ix indexes the groups by n's blocking keys (BlockReps); keyIDs is
	// its per-group id lists; weight is every group's weight, dense, so
	// the walks read 8 bytes per candidate rather than a Group. u and
	// live are the bounds and liveness the verdicts read. Everything
	// below them is a buffer retained across rounds and passes: totals
	// (one slot per key id) backs the stage-0 bucket sums, s0stamp the
	// stage-0.5 walks' first-visit set, gate a pass's frozen
	// per-candidate gate, scratches one walk state per pool worker — so
	// the stage-0 cascades allocate nothing in steady state and a pass
	// allocates only its worker closure.
	ix           *index.IDIndex
	keyIDs       [][]uint32
	weight       []float64
	u            []float64
	live         []bool
	totals       []float64
	s0stamp      *index.Stamp
	gate         []bool
	scratches    []pruneScratch
	stage0Pruned int
	stage0Rounds int // cascade rounds the last RescanStage0 ran, both stages
	passNum      int
}

// pruneScratch is one worker's walk state and its share of a pass's
// counts. slot holds, per group, the walk that last met it (cur names
// the current one) and how many more shared keys that walk must meet
// before the pair reaches its need.
type pruneScratch struct {
	slot        []walkSlot
	cur         uint32
	evals, hits int64
	pruned      int
}

// walkSlot is one candidate's state in a worker's current walk: left
// counts down from the pair's need at each shared key met, and the pair
// is evaluated when it reaches 0 — once, since it only falls further.
type walkSlot struct {
	stamp uint32
	left  int32
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
	p.weight = make([]float64, ng)
	for i := range groups {
		p.weight[i] = groups[i].Weight
	}
	p.u = make([]float64, ng)
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
	p.need = make([]int32, ng)
	p.eval = BindRepsNeed(d, groups, n, p.live, p.need)
	p.gate = make([]bool, ng)
	p.scratches = make([]pruneScratch, parallel.Resolve(workers))
	for w := range p.scratches {
		p.scratches[w].slot = make([]walkSlot, ng)
	}
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
	weight, m := p.weight, p.m
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
		for i, w := range weight {
			if !p.live[i] {
				continue
			}
			for _, k := range p.keyIDs[i] {
				p.totals[k] += w
			}
		}
		changed := false
		for i, w := range weight {
			if !p.live[i] {
				continue
			}
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
	// shared keys) and each kill cascades into the next round. A group's
	// walk visits its keys' buckets in order, each candidate once (the
	// stamp), and stops the moment the gated sum reaches M: the verdict
	// only compares the sum with M, so the rest of the walk could change
	// nothing. Candidates, summation order and break point are those of
	// collecting every candidate first and summing after.
	for round := 0; round < 4; round++ {
		p.stage0Rounds++
		changed := false
		for i, w := range weight {
			if !p.live[i] || w >= m {
				continue
			}
			total := w
			p.s0stamp.Reset()
			p.s0stamp.Visit(i)
		walk:
			for _, k := range p.keyIDs[i] {
				for _, j32 := range p.ix.Bucket(k) {
					j := int(j32)
					if p.s0stamp.Visit(j) || !p.live[j] || (weight[j] < m && p.u[j] < m) {
						continue
					}
					total += weight[j]
					if total >= m {
						break walk
					}
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
// (a Jacobi update over both bounds and liveness — the pass freezes
// which groups count as neighbours before any walk starts and only then
// publishes new bounds, so the per-group computations are independent
// and the pass parallelises). It returns how many groups the pass
// killed, how many candidate pairs it evaluated and how many of those
// were confirmed neighbours; when the Pruner was built with a sink, the
// pass also emits core.prune.pass.{evals,pruned,seconds}, and when ctx
// carries a trace span it is wrapped in a "core.prune.pass" child span
// annotated with the round number and its eval/hit/pruned counts (an
// untraced context costs one nil check).
//
// A live group below M gets one walk over its keys' buckets (walk): it
// survives iff its weight plus the weight of its gated candidates that
// satisfy n reaches M. Two observations keep that join far below a full
// canopy enumeration:
//
//   - every bound is only ever compared against M (survive: ub >= M;
//     gate a neighbour: u_j >= M), so the walk can stop the moment the
//     sum crosses M — when M is small, almost every group certifies
//     survival after a couple of confirmed neighbours;
//   - n's count filter says how many keys a matching pair shares at
//     least, so a pair is evaluated only when the walk has met that
//     many — most candidates share a gram or two and never are.
//
// Early-stopped bounds are stored as exactly M ("at least M"), which
// keeps both comparisons truthful. Which groups survive is the sum's
// verdict, whatever order the walk meets the pairs in (for integer
// weights exactly; fractional ones sum with the order's rounding); the
// evaluation and hit counts depend on the order.
func (p *Pruner) PassCtx(ctx context.Context) (pruned int, evals, hits int64) {
	p.passNum++
	ctx, sp := obs.StartChild(ctx, "core.prune.pass")
	weight, m := p.weight, p.m
	passStart := time.Time{}
	if p.sink != nil {
		passStart = time.Now()
	}
	// Liveness and bounds are frozen for the whole pass, so whether a
	// candidate counts — alive, and not below M on both its weight and
	// its bound — is decided once per group here rather than once per
	// walk that meets it. After this only group i's own walk reads or
	// writes live[i] and u[i].
	for i, w := range weight {
		p.gate[i] = p.live[i] && !(w < m && p.u[i] < m)
	}
	for w := range p.scratches {
		sc := &p.scratches[w]
		sc.evals, sc.hits, sc.pruned = 0, 0, 0
	}
	parallel.ForWorkerCtx(ctx, p.workers, len(weight), func(wk, i int) {
		if !p.live[i] || weight[i] >= m {
			return // dead, or survives on its own weight
		}
		sc := &p.scratches[wk]
		p.u[i] = p.walk(sc, i)
		if p.u[i] < m {
			p.live[i] = false
			sc.pruned++
		}
	})
	// The counts are integer sums, so folding them per worker gives the
	// same totals at every worker count.
	for w := range p.scratches {
		sc := &p.scratches[w]
		evals += sc.evals
		hits += sc.hits
		pruned += sc.pruned
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
	return pruned, evals, hits
}

// walk is group i's exact bound for the current pass: its weight plus
// the weight of every gated candidate n confirms, or exactly M once
// that sum reaches M. It visits i's keys' buckets in order, counting
// per candidate the keys met so far, and evaluates a pair once, at the
// key that brings its count to the smaller of the two needs; by the
// count-filter contract a pair that never gets there does not satisfy
// n. No candidate list is built: the first evaluation that lifts the
// sum to M ends the walk.
func (p *Pruner) walk(sc *pruneScratch, i int) float64 {
	sc.cur++
	if sc.cur == 0 { // wrapped; forget every earlier walk
		clear(sc.slot)
		sc.cur = 1
	}
	cur, slot, gate, need, weight, m := sc.cur, sc.slot, p.gate, p.need, p.weight, p.m
	ub := weight[i]
	var evals, hits int64
walk:
	for _, k := range p.keyIDs[i] {
		for _, j32 := range p.ix.Bucket(k) {
			j := int(j32)
			if !gate[j] || j == i {
				continue
			}
			s := &slot[j]
			if s.stamp != cur {
				s.stamp, s.left = cur, min(need[i], need[j])
			}
			if s.left--; s.left != 0 {
				continue
			}
			evals++
			if p.eval(i, j) {
				hits++
				ub += weight[j]
				if ub >= m {
					ub = m // "at least M": survival certain
					break walk
				}
			}
		}
	}
	sc.evals += evals
	sc.hits += hits
	return ub
}

// prunePass0Rounds caps the evaluation-free bucket-total refinement
// rounds. A variable so TestPass0RoundsAblation can contrast a single
// round with the full cascade (the E7 claim).
var prunePass0Rounds = 6
