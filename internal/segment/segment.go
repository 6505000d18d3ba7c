// Package segment implements the paper's §5.3.2: finding the R highest
// scoring TopK answers over a linear embedding, where a grouping of the
// working set is a segmentation of the ordering and the TopK answer
// identity is the set of K large segments.
//
// The DP follows the paper's Ans_R(k, i, ℓ) recursion: within a slice of
// the search space indexed by ℓ, every non-top segment ("small") has
// length at most ℓ and every top segment ("large") has length greater
// than ℓ. To keep the ℓ-slices disjoint — so that the Marginal mode can
// sum grouping scores without double counting — each segmentation is
// canonically assigned ℓ = the length of its largest small segment (0
// when all records are inside top segments), enforced by tracking whether
// a small segment of length exactly ℓ has been used.
//
// Two semirings:
//
//   - Viterbi: an answer's score is the best single grouping supporting
//     it (max-plus); the returned Full field is that witness.
//   - Marginal: an answer's score is log Σ exp(score) over all groupings
//     supporting it, per the paper's definition "the score of a TopK
//     answer is the sum of the score of all groupings where C1…CK are the
//     K largest clusters" (read in Gibbs/log space).
//
// Segment lengths cap at the scorer's MaxWidth — the paper's "not
// considering any cluster including too many dissimilar points".
package segment

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"topkdedup/internal/score"
)

// Segment is a contiguous run of ordering positions, inclusive.
type Segment struct {
	Start, End int
}

// Len returns the number of positions covered.
func (s Segment) Len() int { return s.End - s.Start + 1 }

// Mode selects the scoring semiring.
type Mode int

// Modes.
const (
	Viterbi Mode = iota
	Marginal
)

// Answer is one TopK answer: K large segments plus its score under the
// selected Mode and a witness segmentation.
type Answer struct {
	Score   float64
	TopSegs []Segment // the K top segments, by start position
	Full    []Segment // highest-scoring full segmentation supporting the answer
}

// chain node for persistent segmentation reconstruction.
type segNode struct {
	seg  Segment
	big  bool
	prev *segNode
}

type entry struct {
	score float64 // semiring score
	wit   float64 // best single-grouping score (witness selection)
	key   string  // canonical identity of big segments so far
	node  *segNode
}

// TopR returns up to R highest-scoring TopK answers for the ordered
// working set represented by sc. K must be >= 1. When fewer than K
// segments fit (n < K) the result is empty.
func TopR(sc *score.SegmentScorer, K, R int, mode Mode) []Answer {
	n, w := sc.N(), sc.MaxWidth()
	if K < 1 || R < 1 || n < K {
		return nil
	}
	final := make(map[string]entry)
	maxSmall := w - 1 // a big segment needs length >= ℓ+1 <= w
	if maxSmall > n-K {
		// With K big segments of length >= ℓ+1 covering > K·ℓ positions,
		// small segments cover at most n−K·(ℓ+1); ℓ can't exceed n−K.
		maxSmall = n - K
	}
	for l := 0; l <= maxSmall; l++ {
		for _, e := range runSlice(sc, K, R, l, mode) {
			merge(final, e, mode)
		}
	}
	return finalize(final, K, R)
}

// runSlice runs the DP for one canonical ℓ value and returns the entries
// of Ans(K, n, ℓ) with the exact-ℓ requirement satisfied.
func runSlice(sc *score.SegmentScorer, K, R, l int, mode Mode) []entry {
	n, w := sc.N(), sc.MaxWidth()
	// dp[i][k][e]: top-R entries for the first i positions with k big
	// segments and e = "a small segment of length exactly ℓ exists".
	dp := make([][][2][]entry, n+1)
	for i := range dp {
		dp[i] = make([][2][]entry, K+1)
	}
	e0 := 0
	if l == 0 {
		e0 = 1 // no small segments at all means "max small length is 0"
	}
	dp[0][0][e0] = []entry{{score: 0, wit: 0, key: "", node: nil}}

	for i := 1; i <= n; i++ {
		for k := 0; k <= K; k++ {
			for e := 0; e <= 1; e++ {
				cands := make(map[string]entry)
				// Small segment of length j ending at position i-1.
				maxJ := l
				if maxJ > i {
					maxJ = i
				}
				for j := 1; j <= maxJ; j++ {
					var srcs [][]entry
					if j == l {
						if e == 1 {
							srcs = [][]entry{dp[i-j][k][0], dp[i-j][k][1]}
						}
					} else {
						srcs = [][]entry{dp[i-j][k][e]}
					}
					if srcs == nil {
						continue
					}
					s := sc.Score(i-j, i-1)
					seg := Segment{Start: i - j, End: i - 1}
					for _, src := range srcs {
						for _, pe := range src {
							merge(cands, extend(pe, seg, false, s, mode), mode)
						}
					}
				}
				// Big segment of length j in [ℓ+1, w] ending at i-1.
				if k >= 1 {
					hi := w
					if hi > i {
						hi = i
					}
					for j := l + 1; j <= hi; j++ {
						s := sc.Score(i-j, i-1)
						seg := Segment{Start: i - j, End: i - 1}
						for _, pe := range dp[i-j][k-1][e] {
							merge(cands, extend(pe, seg, true, s, mode), mode)
						}
					}
				}
				dp[i][k][e] = topEntries(cands, R)
			}
		}
	}
	return dp[n][K][1]
}

// extend appends a segment to a partial entry.
func extend(pe entry, seg Segment, big bool, s float64, mode Mode) entry {
	key := pe.key
	if big {
		key += "|" + strconv.Itoa(seg.Start) + ":" + strconv.Itoa(seg.End)
	}
	return entry{
		score: pe.score + s,
		wit:   pe.wit + s,
		key:   key,
		node:  &segNode{seg: seg, big: big, prev: pe.node},
	}
}

// merge folds e into the by-identity candidate map under the semiring.
func merge(m map[string]entry, e entry, mode Mode) {
	old, ok := m[e.key]
	if !ok {
		m[e.key] = e
		return
	}
	switch mode {
	case Marginal:
		combined := logAddExp(old.score, e.score)
		best := old
		if e.wit > old.wit {
			best = e
		}
		best.score = combined
		m[e.key] = best
	default: // Viterbi
		if e.score > old.score {
			m[e.key] = e
		}
	}
}

func topEntries(m map[string]entry, r int) []entry {
	out := make([]entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	// Score descending, key ascending: keys are unique, so a total order.
	slices.SortFunc(out, func(a, b entry) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	if len(out) > r {
		out = out[:r]
	}
	return out
}

func finalize(m map[string]entry, K, R int) []Answer {
	entries := topEntries(m, R)
	answers := make([]Answer, 0, len(entries))
	for _, e := range entries {
		ans := Answer{Score: e.score}
		for node := e.node; node != nil; node = node.prev {
			ans.Full = append(ans.Full, node.seg)
			if node.big {
				ans.TopSegs = append(ans.TopSegs, node.seg)
			}
		}
		reverseSegs(ans.Full)
		reverseSegs(ans.TopSegs)
		if len(ans.TopSegs) != K {
			continue // defensive; cannot happen by construction
		}
		answers = append(answers, ans)
	}
	return answers
}

func reverseSegs(s []Segment) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func logAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(b, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// Best returns the highest-scoring unconstrained segmentation (no TopK
// structure): the grouping used for the Figure-7 quality comparison
// against the exact correlation-clustering optimum.
func Best(sc *score.SegmentScorer) ([]Segment, float64) {
	n, w := sc.N(), sc.MaxWidth()
	if n == 0 {
		return nil, 0
	}
	const negInf = math.MaxFloat64
	dpScore := make([]float64, n+1)
	back := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dpScore[i] = -negInf
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			s := dpScore[j] + sc.Score(j, i-1)
			if s > dpScore[i] {
				dpScore[i] = s
				back[i] = j
			}
		}
	}
	var segs []Segment
	for i := n; i > 0; i = back[i] {
		segs = append(segs, Segment{Start: back[i], End: i - 1})
	}
	reverseSegs(segs)
	return segs, dpScore[n]
}

// Clusters converts a segmentation over an ordering back to item-id
// clusters: order[pos] gives the item at each position.
func Clusters(segs []Segment, order []int) [][]int {
	out := make([][]int, len(segs))
	for i, s := range segs {
		c := make([]int, 0, s.Len())
		for p := s.Start; p <= s.End; p++ {
			c = append(c, order[p])
		}
		sort.Ints(c)
		out[i] = c
	}
	return out
}
