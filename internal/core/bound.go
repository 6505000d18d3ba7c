package core

import (
	"context"

	"topkdedup/internal/graph"
	"topkdedup/internal/intern"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// boundBlock is how many prefix groups have their candidate pairs
// enumerated before one parallel evaluation round. Candidate enumeration
// depends only on blocking keys — never on evaluation results — so whole
// blocks can be enumerated serially (keeping the bucket/seen sweep
// identical to a plain loop) and their pairs verified in parallel. The
// CPN early-exit is then applied serially in group order, counting only
// the consumed groups' evaluations, so m, M, and the eval counter are
// the same at every worker count (a block may evaluate a few pairs past
// the exit point; those are discarded and never counted).
const boundBlock = 256

// BoundBlock is the scan-block granularity of EstimateLowerBoundCtx,
// exported so replaying estimators (internal/inc) can reproduce the
// exact "bound.block" trace-event cadence of the from-scratch scan.
const BoundBlock = boundBlock

// EstimateLowerBound implements §4.2: given groups in decreasing weight
// order and a necessary predicate n, find the smallest rank m such that
// the first m groups are guaranteed to contain K distinct entities — via
// the clique-partition-number lower bound of the N-graph — and return
// M = weight(c_m), a lower bound on the weight of the K-th largest group
// in the TopK answer.
//
// When the guarantee cannot be established over all groups (the data may
// hold fewer than K entities), it returns m = 0, M = 0, which disables
// pruning.
//
// Serial entry point: EstimateLowerBoundWorkers with one worker.
func EstimateLowerBound(d *records.Dataset, groups []Group, n predicate.P, k int) (m int, lower float64, evals int64) {
	return EstimateLowerBoundWorkers(d, groups, n, k, 1)
}

// EstimateLowerBoundWorkers is EstimateLowerBound with the
// necessary-predicate edge construction spread over a worker pool
// (workers <= 0 means all CPUs, 1 is serial). n.Eval must be safe for
// concurrent use when workers != 1.
//
// It is the single-machine composition of the two pieces the sharded
// pipeline drives separately: a BoundScanner produces per-group
// greedy-independence verdicts block by block, and a
// graph.PrefixController consumes them in rank order and decides when K
// entities are certified.
func EstimateLowerBoundWorkers(d *records.Dataset, groups []Group, n predicate.P, k, workers int) (m int, lower float64, evals int64) {
	m, lower, evals, _ = EstimateLowerBoundCtx(context.Background(), d, groups, n, k, workers)
	return m, lower, evals
}

// EstimateLowerBoundCtx is EstimateLowerBoundWorkers under a context:
// it additionally returns the necessary-predicate hit count (pairs that
// evaluated true among consumed groups) and, when ctx carries a trace
// span, wraps the scan in a "core.bound" child span whose "bound.block"
// events record the M bound's evolution per scan block — the trail the
// EXPLAIN report renders. An untraced context costs one nil check.
func EstimateLowerBoundCtx(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, k, workers int) (m int, lower float64, evals, hits int64) {
	if len(groups) == 0 || k < 1 {
		return 0, 0, 0, 0
	}
	_, sp := obs.StartChild(ctx, "core.bound")
	defer func() {
		if sp != nil {
			sp.Attr("evals", float64(evals))
			sp.Attr("hits", float64(hits))
			sp.Attr("m_rank", float64(m))
			sp.Attr("m", lower)
			sp.End()
		}
	}()
	limit := BoundScanLimit(groups, k)
	sc := NewBoundScanner(d, groups, n, workers)
	pc := graph.NewPrefixController(k)
	independentSoFar := 0
	consumed := 0
	for sc.Scanned() < limit {
		count := limit - sc.Scanned()
		if count > boundBlock {
			count = boundBlock
		}
		flags, pairEvals, pairHits := sc.ScanHits(count)
		// Consume serially in group order; stop at the first rank where the
		// CPN bound certifies K entities. Only consumed groups' pairs count
		// as evaluations, so the counter matches the serial sweep exactly.
		for bi, independent := range flags {
			evals += pairEvals[bi]
			hits += pairHits[bi]
			consumed++
			if independent {
				independentSoFar++
			}
			if pc.Feed(independent, sc.CPNAt) {
				m = pc.ReachedAt()
				lower = groups[m-1].Weight
				if sp != nil {
					sp.Event("bound.block", obs.Num("scanned", float64(consumed)),
						obs.Num("independent", float64(independentSoFar)), obs.Num("m", lower))
				}
				return m, lower, evals, hits
			}
		}
		if sp != nil {
			sp.Event("bound.block", obs.Num("scanned", float64(consumed)),
				obs.Num("independent", float64(independentSoFar)), obs.Num("m", 0))
		}
	}
	if limit < len(groups) {
		// The scan hit the weight floor or the prefix budget before
		// certifying K entities; any later M could not pay off.
		return 0, 0, evals, hits
	}
	if pc.Finish(sc.CPNAt) {
		m = pc.ReachedAt()
		lower = groups[m-1].Weight
		if sp != nil {
			sp.Event("bound.block", obs.Num("scanned", float64(consumed)),
				obs.Num("independent", float64(independentSoFar)), obs.Num("m", lower))
		}
		return m, lower, evals, hits
	}
	return 0, 0, evals, hits
}

// BoundScanLimit returns how many prefix groups the §4.2 scan may
// consume before aborting: the scan stops at the first group whose
// weight has descended to the minimum group weight (an M at the floor
// prunes nothing, since no group's upper bound is below its own weight)
// and never goes past max(4K, 2000) groups (the paper's m stays within
// ~1.2x of K on every dataset; past 4K the quadratically growing
// candidate evaluations outweigh any pruning the eventual M could buy).
// Because groups are sorted by decreasing weight, the result is a prefix
// length. The sharded coordinator applies the same limit to the merged
// global order, so shards never scan groups the single-machine sweep
// would not have scanned.
func BoundScanLimit(groups []Group, k int) int {
	if len(groups) == 0 {
		return 0
	}
	minWeight := groups[len(groups)-1].Weight
	maxPrefix := 4 * k
	if maxPrefix < 2000 {
		maxPrefix = 2000
	}
	limit := 0
	for limit < len(groups) && limit < maxPrefix && groups[limit].Weight > minWeight {
		limit++
	}
	return limit
}

// BoundScanner is the data half of the §4.2 lower-bound scan: it walks a
// weight-sorted group list in rank order, enumerates each group's
// necessary-predicate candidates among earlier groups (blocked by the
// predicate's keys, deduplicated, and verified on a worker pool), and
// maintains the greedy independent set of the resulting prefix graph.
// It makes no stopping decisions — callers feed the verdicts to a
// graph.PrefixController (the sharded coordinator feeds one global
// controller from several per-shard scanners; the canopy-closed
// partition guarantees no candidate edge crosses scanners, so the merged
// verdict stream equals the single-machine one).
type BoundScanner struct {
	d      *records.Dataset
	groups []Group
	n      predicate.P
	// eval is n bound to the representatives of groups[:boundTo], a
	// prefix grown (by doubling) as blocks with a pair to verify reach
	// past it: most scans certify K entities within a block or two of a
	// list thousands long, and the incremental tier keeps one scanner per
	// canopy component, most of them a single group that never compares
	// anything.
	eval    func(i, j int) bool
	boundTo int
	workers int
	// Keys are interned incrementally as the scan discovers them; buckets
	// is indexed by key id (grown to the table size each block), and seen
	// is a stamp slice indexed by group rank — candidate dedup without a
	// map probe per (key, prior-group) visit.
	tab     *intern.Table
	buckets [][]int32 // key id -> prior group indices
	seen    []int32   // candidate dedup, stamped by consuming rank + 1
	lp      *graph.LocalPrefix
	at      int
	// scratch reused across Scan calls
	keyIDs    []uint32
	pairs     []boundPair
	pairStart []int
	verdict   []bool
	nbrs      []int
}

type boundPair struct{ gi, gj int32 }

// NewBoundScanner returns a scanner over groups (which must be sorted by
// decreasing weight, Rep ascending on ties) for necessary predicate n.
// workers <= 0 means all CPUs, 1 is serial; n.Eval must be safe for
// concurrent use when workers != 1.
func NewBoundScanner(d *records.Dataset, groups []Group, n predicate.P, workers int) *BoundScanner {
	return &BoundScanner{
		d: d, groups: groups, n: n, workers: workers,
		tab:  intern.New(),
		seen: make([]int32, len(groups)),
		lp:   graph.NewLocalPrefix(),
	}
}

// Scanned returns how many groups have been consumed so far.
func (sc *BoundScanner) Scanned() int { return sc.at }

// Scan consumes the next count groups (clamped to the remaining list)
// and returns, per consumed group in rank order, whether it joined the
// greedy independent set and how many candidate pairs it evaluated.
// Enumeration is serial (so the bucket/seen state is identical to a
// plain loop); the block's pair verifications run on the worker pool.
func (sc *BoundScanner) Scan(count int) (independent []bool, pairEvals []int64) {
	independent, pairEvals, _ = sc.ScanHits(count)
	return independent, pairEvals
}

// ScanHits is Scan returning additionally, per consumed group, how many
// of its candidate pairs evaluated true (necessary-predicate hits —
// the edges of the prefix graph). Deterministic at every worker count,
// like the eval counts.
func (sc *BoundScanner) ScanHits(count int) (independent []bool, pairEvals, pairHits []int64) {
	end := sc.at + count
	if end > len(sc.groups) {
		end = len(sc.groups)
	}
	sc.pairs = sc.pairs[:0]
	sc.pairStart = sc.pairStart[:0]
	for gi := sc.at; gi < end; gi++ {
		sc.pairStart = append(sc.pairStart, len(sc.pairs))
		sc.keyIDs = sc.n.KeyIDs(sc.tab, sc.d.Recs[sc.groups[gi].Rep], sc.keyIDs[:0])
		// Grow the bucket slice to cover any ids this group minted.
		for len(sc.buckets) < sc.tab.Len() {
			sc.buckets = append(sc.buckets, nil)
		}
		for _, key := range sc.keyIDs {
			for _, gj := range sc.buckets[key] {
				if sc.seen[gj] == int32(gi+1) {
					continue
				}
				sc.seen[gj] = int32(gi + 1)
				sc.pairs = append(sc.pairs, boundPair{int32(gi), gj})
			}
			sc.buckets[key] = append(sc.buckets[key], int32(gi))
		}
	}
	sc.pairStart = append(sc.pairStart, len(sc.pairs))

	// Verify the block's pairs in parallel; each slot owned by one index.
	if cap(sc.verdict) < len(sc.pairs) {
		sc.verdict = make([]bool, len(sc.pairs))
	}
	sc.verdict = sc.verdict[:len(sc.pairs)]
	if end > sc.boundTo && len(sc.pairs) > 0 {
		sc.boundTo = min(max(end, 2*sc.boundTo), len(sc.groups))
		sc.eval = BindReps(sc.d, sc.groups[:sc.boundTo], sc.n, nil)
	}
	parallel.For(sc.workers, len(sc.pairs), func(t int) {
		p := sc.pairs[t]
		sc.verdict[t] = sc.eval(int(p.gi), int(p.gj))
	})

	independent = make([]bool, end-sc.at)
	pairEvals = make([]int64, end-sc.at)
	pairHits = make([]int64, end-sc.at)
	for bi := 0; bi < end-sc.at; bi++ {
		lo, hi := sc.pairStart[bi], sc.pairStart[bi+1]
		pairEvals[bi] = int64(hi - lo)
		sc.nbrs = sc.nbrs[:0]
		for t := lo; t < hi; t++ {
			if sc.verdict[t] {
				sc.nbrs = append(sc.nbrs, int(sc.pairs[t].gj))
			}
		}
		pairHits[bi] = int64(len(sc.nbrs))
		independent[bi] = sc.lp.Add(sc.nbrs)
	}
	sc.at = end
	return independent, pairEvals, pairHits
}

// CPNAt returns the Algorithm-1 CPN lower bound of the first prefix
// scanned groups (see graph.LocalPrefix.CPNAt). The sharded coordinator
// sums this across shards during a stalled-bound full check; the sums
// are exact because shard prefix graphs are vertex-disjoint.
func (sc *BoundScanner) CPNAt(prefix int) int { return sc.lp.CPNAt(prefix) }
