package core

import (
	"context"
	"time"

	"topkdedup/internal/graph"
	"topkdedup/internal/index"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// boundBlock is how many ranks of the weight order one round of the
// §4.2 scan covers. Candidate enumeration depends only on blocking keys —
// never on evaluation results — so a whole block can be enumerated
// serially (keeping the bucket/seen sweep identical to a plain loop) and
// its pairs verified in parallel. The CPN early-exit is then applied
// serially in rank order, counting only the consumed groups' evaluations,
// so m, M, and the eval counter are the same at every worker count (a
// block may evaluate a few pairs past the exit point; those are discarded
// and never counted).
const boundBlock = 256

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
// Serial entry point: EstimateLowerBoundCtx with one worker and no trace.
func EstimateLowerBound(d *records.Dataset, groups []Group, n predicate.P, k int) (m int, lower float64, evals int64) {
	m, lower, evals, _ = EstimateLowerBoundCtx(context.Background(), d, groups, n, k, 1)
	return m, lower, evals
}

// EstimateLowerBoundCtx is EstimateLowerBound with the
// necessary-predicate edge construction spread over a worker pool
// (workers <= 0 means all CPUs, 1 is serial; n.Eval must be safe for
// concurrent use when workers != 1) and under a context: it
// additionally returns the necessary-predicate hit count (pairs that
// evaluated true among consumed groups).
//
// The scan is the incremental Algorithm 1 of §4.2.1: block by block it
// enumerates and verifies the candidate pairs of the next boundBlock
// ranks, then adds those ranks in order to one graph.Prefix, which stops
// at the first rank m certifying K entities — consulting its Min-fill
// bound when the cheap greedy bound stalls. It gives up, returning m = 0
// and M = 0, at BoundScanLimit.
//
// When ctx carries a trace span, the scan is recorded as a "core.bound"
// child span — attributes evals, hits, m_rank and lower — with one
// "bound.block" event per block consumed (ranks scanned and independent
// so far, and M once certified): the trail the EXPLAIN report renders.
// An untraced context costs one context lookup.
//
// It blocks groups[:BoundScanLimit(groups, k)] under n for the scan;
// Algorithm 2's level loop instead hands the scan the index of the
// level's groups it keeps for the prune step (estimateLowerBound).
func EstimateLowerBoundCtx(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, k, workers int) (m int, lower float64, evals, hits int64) {
	block := func() *index.IDIndex { return BlockReps(d, groups[:BoundScanLimit(groups, k)], n, nil) }
	m, lower, evals, hits, _ = estimateLowerBound(ctx, nil, d, groups, n, block, k, workers)
	return m, lower, evals, hits
}

// estimateLowerBound is EstimateLowerBoundCtx over the index block
// returns, which it asks for once, when there is a rank to scan, timed
// and counted as the core.bound phase into sink (nil for none); it also
// returns the phase's duration. The index must be BlockReps under n
// over groups or a prefix of them at least BoundScanLimit(groups, k)
// long; the scan only reads it.
func estimateLowerBound(ctx context.Context, sink obs.Sink, d *records.Dataset, groups []Group, n predicate.P, block func() *index.IDIndex, k, workers int) (m int, lower float64, evals, hits int64, dur time.Duration) {
	_, ph := obs.Start(ctx, sink, "core.bound")
	defer func() {
		ph.Count("core.bound.evals", evals)
		ph.Attr("hits", float64(hits))
		ph.Gauge("core.bound.m_rank", float64(m))
		ph.Gauge("core.bound.lower", lower)
		dur = ph.End()
	}()
	if len(groups) == 0 || k < 1 {
		return 0, 0, 0, 0, 0
	}
	consumed := 0
	prefix := graph.NewPrefix(k)
	blockEvent := func() {
		if ph.Traced() {
			ph.Event("bound.block", obs.Num("scanned", float64(consumed)),
				obs.Num("independent", float64(prefix.Independent())), obs.Num("m", lower))
		}
	}
	limit := BoundScanLimit(groups, k)
	var sc *boundScanner
	if limit > 0 {
		sc = newBoundScanner(d, groups, n, block(), limit, workers)
	}
	for consumed < limit {
		end := min(consumed+boundBlock, limit)
		sc.scan(end)
		// Consume serially in rank order; stop at the first rank where the
		// CPN bound certifies K entities. Only consumed groups' pairs count
		// as evaluations, so the counter matches the serial sweep exactly.
		for consumed < end {
			nbrs, pairs := sc.neighbors(consumed)
			consumed++
			evals += int64(pairs)
			hits += int64(len(nbrs))
			if prefix.Add(nbrs) {
				m = prefix.ReachedAt()
				lower = groups[m-1].Weight
				blockEvent()
				return m, lower, evals, hits, 0
			}
		}
		blockEvent()
	}
	// The limit stops short of the list's last group at the latest (its
	// weight is the floor), so there is no exhausted list to run a final
	// check on: a scan that gets here has certified nothing.
	return 0, 0, evals, hits, 0
}

// BoundScanLimit returns how many prefix groups the §4.2 scan may
// consume before aborting: the scan stops at the first group whose
// weight has descended to the minimum group weight (an M at the floor
// prunes nothing, since no group's upper bound is below its own weight)
// and never goes past max(4K, 2000) groups (the paper's m stays within
// ~1.2x of K on every dataset; past 4K the quadratically growing
// candidate evaluations outweigh any pruning the eventual M could buy).
// Because groups are sorted by decreasing weight, the result is a prefix
// length.
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

// boundScanner is the data half of the §4.2 scan: it walks a
// weight-sorted group list in rank order, enumerating each group's
// necessary-predicate candidates among earlier groups and verifying them
// on a worker pool. The candidates come from the index of the groups
// under the predicate's keys: rank gi's earlier groups sharing a key are
// the head of that key's bucket below gi (buckets are ascending), and a
// rank stamp drops the ones met under a second shared key. It makes no
// stopping decisions; EstimateLowerBoundCtx feeds the verified edges to
// a graph.Prefix.
type boundScanner struct {
	d      *records.Dataset
	groups []Group
	n      predicate.P
	ix     *index.IDIndex
	// eval is n bound to the representatives of groups[:boundTo], a
	// prefix grown (by doubling) as blocks with a pair to verify reach
	// past it: most scans certify K entities within a block or two of a
	// list thousands long.
	eval    func(i, j int) bool
	boundTo int
	workers int
	seen    []int32 // candidate dedup by rank, stamped by consuming rank + 1
	// The current block: ranks [lo, at), their candidate pairs (rank
	// lo+i's are pairs[pairStart[i]:pairStart[i+1]]) and verdicts.
	lo, at    int
	pairs     []boundPair
	pairStart []int
	verdict   []bool
	nbrs      []int
}

type boundPair struct{ gi, gj int32 }

// newBoundScanner returns a scanner over groups (which must be sorted by
// decreasing weight, Rep ascending on ties) for necessary predicate n,
// reading ix, the index of at least groups[:limit] under n, for the
// candidates of ranks below limit.
func newBoundScanner(d *records.Dataset, groups []Group, n predicate.P, ix *index.IDIndex, limit, workers int) *boundScanner {
	return &boundScanner{
		d: d, groups: groups, n: n, ix: ix, workers: workers,
		seen: make([]int32, limit),
	}
}

// scan makes ranks [at, end) the current block: it enumerates their
// candidate pairs serially (rank order, each rank's keys in index order,
// each bucket ascending — the order of a plain loop) and verifies them on
// the worker pool.
func (sc *boundScanner) scan(end int) {
	sc.lo = sc.at
	sc.pairs = sc.pairs[:0]
	sc.pairStart = sc.pairStart[:0]
	keysOf := sc.ix.KeyIDs()
	for gi := sc.lo; gi < end; gi++ {
		sc.pairStart = append(sc.pairStart, len(sc.pairs))
		for _, key := range keysOf[gi] {
			for _, gj := range sc.ix.Bucket(key) {
				if int(gj) >= gi {
					break // ascending: the rest are gi and later ranks
				}
				if sc.seen[gj] == int32(gi+1) {
					continue
				}
				sc.seen[gj] = int32(gi + 1)
				sc.pairs = append(sc.pairs, boundPair{int32(gi), gj})
			}
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
	sc.at = end
}

// neighbors returns, for rank gi of the current block, the earlier ranks
// its candidate pairs verified as necessary-predicate edges, and how many
// pairs it evaluated. The slice is reused by the next call.
func (sc *boundScanner) neighbors(gi int) (nbrs []int, pairs int) {
	lo, hi := sc.pairStart[gi-sc.lo], sc.pairStart[gi-sc.lo+1]
	sc.nbrs = sc.nbrs[:0]
	for t := lo; t < hi; t++ {
		if sc.verdict[t] {
			sc.nbrs = append(sc.nbrs, int(sc.pairs[t].gj))
		}
	}
	return sc.nbrs, hi - lo
}
