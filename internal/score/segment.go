package score

import "sync"

// MaxSegmentWidth caps how many ordered items one segment may span in the
// final phase's segmentation search: the paper's "not considering any
// cluster including too many dissimilar points" (§5.3.2), over collapsed
// groups.
const MaxSegmentWidth = 24

// NonCandidateScore is the pair score of two items failing the last
// necessary predicate — known non-duplicates — so that no segment of
// positive score ever spans them.
const NonCandidateScore = -1e6

// SegmentScorer precomputes Group_Score values for contiguous segments of
// a linear ordering, the S(i, j) of the paper's segmentation DP (§5.3.2).
// Only segments of width at most maxWidth are representable — the paper's
// "not considering any cluster including too many dissimilar points"
// speed-up — so memory and pair evaluations stay O(n·maxWidth).
//
// For the correlation-clustering objective (Eq. 1 with its ordered-pair
// convention, matching score.GroupScore), the score of segment [i, j] is
//
//	S(i,j) = 2·posIn(i,j) − (negAll(i,j) − 2·negIn(i,j))
//
// where posIn/negIn sum the positive/negative pair scores inside the
// segment and negAll sums each member's total negative score against the
// whole working set. The scorer needs those totals, so construction also
// evaluates each item's negative mass; to keep that subquadratic the
// caller may provide a candidate list per item (pairs outside candidate
// lists score zero and contribute nothing).
type SegmentScorer struct {
	n, w int
	// pos[i][d] = Σ positive P(a,b) for i <= a < b <= i+d (band storage).
	pos [][]float64
	// neg[i][d] = Σ negative P(a,b) for i <= a < b <= i+d.
	neg [][]float64
	// negAllPrefix[i] = Σ_{a < i} negAll(a), negAll(a) = Σ_b min(P(a,b),0).
	negAllPrefix []float64
	// back is the pooled flat array every table row above is carved from;
	// Release returns it (see segmentBacking).
	back *segmentBacking
}

// segmentBacking is the pooled flat float64 storage behind a
// SegmentScorer's band tables. One contiguous array serves all rows —
// fewer allocations than per-row slices and the whole thing is reusable
// across queries via Release.
type segmentBacking struct {
	f   []float64
	pos [][]float64
	neg [][]float64
}

var segmentBackingPool = sync.Pool{New: func() any { return &segmentBacking{} }}

// NewSegmentScorer builds the banded tables over n ordered items. f is the
// pair score in ordering positions. negAll gives each position's total
// negative score against all items (inside or outside the band); pass nil
// to derive it from the band only (treating out-of-band pairs as zero).
//
// The tables live in pooled backing storage: call Release when the scorer
// is no longer needed to recycle it (optional — an unreleased scorer is
// ordinary garbage).
func NewSegmentScorer(n, maxWidth int, f PairFunc, negAll []float64) *SegmentScorer {
	if maxWidth < 1 {
		maxWidth = 1
	}
	if maxWidth > n {
		maxWidth = n
	}
	back := segmentBackingPool.Get().(*segmentBacking)
	// Row widths: pos/neg row i covers segments [i, i+d] for d < width_i
	// with width_i = min(maxWidth, n-i); the band row a caches pairs
	// (a, a+d+1), one entry narrower.
	total := n + 1 // negAllPrefix
	for i := 0; i < n; i++ {
		wi := maxWidth
		if i+wi > n {
			wi = n - i
		}
		total += 3*wi - 1 // pos_i + neg_i + band_i
	}
	if cap(back.f) < total {
		back.f = make([]float64, total)
	}
	back.f = back.f[:total]
	clear(back.f) // the recurrences assume zero-initialised tables
	if cap(back.pos) < n {
		back.pos = make([][]float64, n)
		back.neg = make([][]float64, n)
	}
	back.pos = back.pos[:n]
	back.neg = back.neg[:n]
	cur := 0
	carve := func(sz int) []float64 {
		row := back.f[cur : cur+sz : cur+sz]
		cur += sz
		return row
	}
	s := &SegmentScorer{
		n:            n,
		w:            maxWidth,
		pos:          back.pos,
		neg:          back.neg,
		negAllPrefix: carve(n + 1),
		back:         back,
	}
	// Band pair cache to avoid re-evaluating f: band[a][b-a-1] for
	// b-a < maxWidth. The band is only needed during construction, so its
	// rows are carved but not retained on the scorer.
	band := make([][]float64, n)
	for a := 0; a < n; a++ {
		width := maxWidth
		if a+width > n {
			width = n - a
		}
		s.pos[a] = carve(width)
		s.neg[a] = carve(width)
		band[a] = carve(width - 1)
		for d := range band[a] {
			band[a][d] = f(a, a+d+1)
		}
	}
	if negAll == nil {
		negAll = make([]float64, n)
		for a := 0; a < n; a++ {
			for d, p := range band[a] {
				if p < 0 {
					negAll[a] += p
					negAll[a+d+1] += p
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		s.negAllPrefix[a+1] = s.negAllPrefix[a] + negAll[a]
	}
	// pos[i][d]: segment [i, i+d]. pos[i][0] = 0. Recurrence: extending
	// [i, j-1] to [i, j] adds column Σ_{a=i..j-1} P(a, j), accumulated from
	// the bottom (i decreasing) so each (i, j) costs O(1).
	for j := 0; j < n; j++ {
		var colPos, colNeg float64
		lo := j - maxWidth + 1
		if lo < 0 {
			lo = 0
		}
		for i := j - 1; i >= lo; i-- {
			p := band[i][j-i-1]
			if p > 0 {
				colPos += p
			} else {
				colNeg += p
			}
			s.pos[i][j-i] = s.pos[i][j-i-1] + colPos
			s.neg[i][j-i] = s.neg[i][j-i-1] + colNeg
		}
	}
	return s
}

// Release returns the scorer's pooled backing storage; the scorer (and
// every value previously read from it) must not be used afterwards.
// Calling Release more than once is a no-op.
func (s *SegmentScorer) Release() {
	b := s.back
	if b == nil {
		return
	}
	s.back = nil
	s.pos, s.neg, s.negAllPrefix = nil, nil, nil
	segmentBackingPool.Put(b)
}

// N returns the number of ordered items.
func (s *SegmentScorer) N() int { return s.n }

// MaxWidth returns the largest representable segment width.
func (s *SegmentScorer) MaxWidth() int { return s.w }

// Score returns Group_Score of the segment covering ordering positions
// [i, j] inclusive. It panics when the segment exceeds MaxWidth.
func (s *SegmentScorer) Score(i, j int) float64 {
	if j-i >= s.w {
		panic("score: segment wider than MaxWidth")
	}
	posIn := s.pos[i][j-i]
	negIn := s.neg[i][j-i]
	negAll := s.negAllPrefix[j+1] - s.negAllPrefix[i]
	// Cross negative mass = total negative mass of members − the negative
	// mass between members (counted twice in negAll).
	cross := negAll - 2*negIn
	return 2*posIn - cross
}
