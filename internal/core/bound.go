package core

import (
	"context"
	"fmt"

	"topkdedup/internal/graph"
	"topkdedup/internal/intern"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// boundBlock is how many ranks of the weight order one round of the
// §4.2 scan covers. Candidate enumeration depends only on blocking keys —
// never on evaluation results — so a whole block can be enumerated
// serially (keeping the bucket/seen sweep identical to a plain loop) and
// its pairs verified in parallel, or on several machines at once. The
// CPN early-exit is then applied serially in rank order, counting only
// the consumed groups' evaluations, so m, M, and the eval counter are
// the same at every worker count and every part count (a block may
// evaluate a few pairs past the exit point; those are discarded and
// never counted).
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
// evaluated true among consumed groups) and, when ctx carries a trace
// span, records the scan as a "core.bound" child span (see ReplayBound).
// An untraced context costs one nil check.
//
// It is ReplayBound over a single part: one BoundScanner holding the
// whole group list.
func EstimateLowerBoundCtx(ctx context.Context, d *records.Dataset, groups []Group, n predicate.P, k, workers int) (m int, lower float64, evals, hits int64) {
	// A scanner cannot fail, so neither can the replay.
	m, lower, evals, hits, _ = ReplayBound(ctx, "core.bound", groups, nil,
		scanners{NewBoundScanner(d, groups, n, workers)}, k)
	return m, lower, evals, hits
}

// PartScan is one part's share of a scan block: per group the part
// consumed, in the part's own rank order, whether it joined the part's
// greedy independent set and how many candidate pairs it evaluated and
// hit (BoundScanner.ScanHits' three results).
type PartScan struct {
	// Independent holds one greedy-independence verdict per group.
	Independent []bool
	// Evals counts, per group, the candidate pairs evaluated.
	Evals []int64
	// Hits counts, per group, the pairs that evaluated true.
	Hits []int64
}

// BoundParts is the data half of the §4.2 scan as ReplayBound drives it:
// the weight-ordered group list cut into vertex-disjoint parts — no
// necessary-predicate candidate pair has its ends in two parts — each
// scanned in its own rank order by its own BoundScanner, wherever that
// scanner lives. Both quantities asked of it decompose over such parts:
// a group joins the greedy independent set on its own part's earlier
// ranks alone, and Min-fill elimination never adds a fill edge across
// parts, so a prefix's Algorithm-1 bound is the sum of the parts'.
type BoundParts interface {
	// Parts returns the part count P; parts are numbered 0..P-1.
	Parts() int
	// Scan extends part p's scan by counts[p] groups (a part with count
	// 0 is left alone) and returns, indexed by part, what those groups
	// did.
	Scan(ctx context.Context, counts []int) ([]PartScan, error)
	// CPN returns the sum over parts of the Algorithm-1 CPN lower bound
	// of part p's first prefix[p] scanned groups.
	CPN(ctx context.Context, prefix []int) (int, error)
}

// scanners is the in-memory BoundParts: part p is scanners[p].
type scanners []*BoundScanner

func (ss scanners) Parts() int { return len(ss) }

func (ss scanners) Scan(_ context.Context, counts []int) ([]PartScan, error) {
	out := make([]PartScan, len(ss))
	for p, sc := range ss {
		if counts[p] > 0 {
			out[p].Independent, out[p].Evals, out[p].Hits = sc.ScanHits(counts[p])
		}
	}
	return out, nil
}

func (ss scanners) CPN(_ context.Context, prefix []int) (int, error) {
	total := 0
	for p, sc := range ss {
		total += sc.CPNAt(prefix[p])
	}
	return total, nil
}

// ReplayBound is the decision half of the §4.2 scan, and the only
// consume loop there is: block by block it has src scan each part's
// share of the next boundBlock ranks of groups (weight-sorted; rank r
// belongs to part partOf[r], or to part 0 throughout when partOf is
// nil), then feeds the returned verdicts in rank order through one
// graph.PrefixController, which stops at the first rank m certifying K
// entities — consulting src's summed Algorithm-1 bound when the cheap
// greedy bound stalls. It gives up, returning m = 0 and M = 0, at
// BoundScanLimit. Evaluations and hits are counted per consumed rank, so
// (m, M, evals, hits) do not depend on how the list is cut into parts:
// the single-machine scan is the one-part case and the sharded
// coordinator (internal/shard) the one-part-per-shard case of the same
// loop. An error from src ends the scan and is returned as is.
//
// When ctx carries a trace span, the scan is recorded as a child span
// named span — attributes evals, hits, m_rank and m — with one
// "bound.block" event per block consumed (ranks scanned and independent
// so far, and M once certified): the trail the EXPLAIN report renders.
// src is called under that span's context.
func ReplayBound(ctx context.Context, span string, groups []Group, partOf []int32, src BoundParts, k int) (m int, lower float64, evals, hits int64, err error) {
	if len(groups) == 0 || k < 1 {
		return 0, 0, 0, 0, nil
	}
	consumed, independent := 0, 0
	ctx, sp := obs.StartChild(ctx, span)
	defer func() {
		if sp != nil {
			sp.Attr("evals", float64(evals))
			sp.Attr("hits", float64(hits))
			sp.Attr("m_rank", float64(m))
			sp.Attr("m", lower)
			sp.End()
		}
	}()
	blockEvent := func() {
		if sp != nil {
			sp.Event("bound.block", obs.Num("scanned", float64(consumed)),
				obs.Num("independent", float64(independent)), obs.Num("m", lower))
		}
	}
	limit := BoundScanLimit(groups, k)
	part := func(r int) int {
		if partOf == nil {
			return 0
		}
		return int(partOf[r])
	}
	// share counts ranks [lo, hi) by part.
	counts := make([]int, src.Parts())
	share := func(lo, hi int) []int {
		clear(counts)
		for r := lo; r < hi; r++ {
			counts[part(r)]++
		}
		return counts
	}
	fullCPN := func(prefix int) int {
		if err != nil {
			return 0
		}
		var cpn int
		cpn, err = src.CPN(ctx, share(0, prefix))
		return cpn
	}
	pc := graph.NewPrefixController(k)
	at := make([]int, len(counts))
	for consumed < limit {
		end := min(consumed+boundBlock, limit)
		scans, serr := src.Scan(ctx, share(consumed, end))
		if serr != nil {
			return 0, 0, evals, hits, serr
		}
		for p, c := range counts {
			if p >= len(scans) || len(scans[p].Independent) != c || len(scans[p].Evals) != c || len(scans[p].Hits) != c {
				return 0, 0, evals, hits, fmt.Errorf("core: bound scan: part %d did not return the %d ranks asked of it", p, c)
			}
		}
		clear(at)
		// Consume serially in rank order; stop at the first rank where the
		// CPN bound certifies K entities. Only consumed groups' pairs count
		// as evaluations, so the counter matches the serial sweep exactly.
		for r := consumed; r < end; r++ {
			p := part(r)
			ps, i := &scans[p], at[p]
			at[p]++
			evals += ps.Evals[i]
			hits += ps.Hits[i]
			consumed++
			if ps.Independent[i] {
				independent++
			}
			reached := pc.Feed(ps.Independent[i], fullCPN)
			if err != nil {
				return 0, 0, evals, hits, err
			}
			if reached {
				m = pc.ReachedAt()
				lower = groups[m-1].Weight
				blockEvent()
				return m, lower, evals, hits, nil
			}
		}
		blockEvent()
	}
	// The limit stops short of the list's last group at the latest (its
	// weight is the floor), so there is no exhausted list to run a final
	// check on: a scan that gets here has certified nothing.
	return 0, 0, evals, hits, nil
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
// It makes no stopping decisions — ReplayBound feeds the verdicts to a
// graph.PrefixController (the sharded coordinator's replay is fed from
// several per-shard scanners; the canopy-closed partition guarantees no
// candidate edge crosses scanners, so the merged verdict stream equals
// the single-machine one).
type BoundScanner struct {
	d      *records.Dataset
	groups []Group
	n      predicate.P
	// eval is n bound to the representatives of groups[:boundTo], a
	// prefix grown (by doubling) as blocks with a pair to verify reach
	// past it: most scans certify K entities within a block or two of a
	// list thousands long.
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
	// scratch reused across ScanHits calls
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

// ScanHits consumes the next count groups (clamped to the remaining
// list; count must not be negative) and returns, per consumed group in
// rank order, whether it joined the greedy independent set, how many
// candidate pairs it evaluated, and how many of those evaluated true
// (necessary-predicate hits — the edges of the prefix graph).
// Enumeration is serial (so the bucket/seen state is identical to a
// plain loop); the block's pair verifications run on the worker pool,
// and all three results are the same at every worker count.
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
