package segment

import (
	"topkdedup/internal/score"
)

// Ranked is one segmentation with its total score.
type Ranked struct {
	Score float64
	Segs  []Segment
}

// BestR returns the R highest-scoring segmentations of the ordered
// working set (standard k-best segmentation DP, no TopK structure). It
// generalises Best: BestR(sc, 1)[0] is the optimum.
//
// The engine uses BestR rather than the length-stratified TopR for answer
// generation over collapsed groups: group weights are heterogeneous there,
// so a "largest segments by position count" stratification can exclude
// the highest-scoring grouping when segment lengths tie (see
// Engine.finalPhase). TopR remains the paper-faithful construction for
// unit-weight records.
//
// The cells of position i are the r best of dp[j][rank].score +
// Score(j, i-1) over the band's start positions j, in the total order
// (score descending, j descending, rank ascending). Each j contributes a
// row that is already in that order — dp[j] is, and adding one constant
// to a non-increasing sequence keeps it non-increasing — so the r best
// are an r-step merge of at most MaxWidth sorted rows: scan the row heads
// from the highest j down and take a head only when it is strictly
// better, which resolves score ties to the highest j and, within a row,
// to the lowest rank.
func BestR(sc *score.SegmentScorer, r int) []Ranked {
	n, w := sc.N(), sc.MaxWidth()
	if n == 0 || r < 1 {
		return nil
	}
	type cell struct {
		score    float64
		prevPos  int // start of the last segment
		prevRank int // which entry of dp[prevPos] it extends
	}
	// dp[i] holds up to r best scores for the first i positions.
	dp := make([][]cell, n+1)
	dp[0] = []cell{{score: 0, prevPos: -1}}
	// Per start position of the band, relative to lo: the segment score,
	// the row's head rank, and the head's total.
	segScore := make([]float64, w)
	head := make([]int, w)
	headVal := make([]float64, w)
	for i := 1; i <= n; i++ {
		lo := max(i-w, 0)
		total := 0
		for j := lo; j < i; j++ {
			s := sc.Score(j, i-1)
			segScore[j-lo], head[j-lo], headVal[j-lo] = s, 0, dp[j][0].score+s
			total += len(dp[j])
		}
		row := make([]cell, 0, min(r, total))
		for len(row) < cap(row) {
			best := -1
			for j := i - 1; j >= lo; j-- {
				if head[j-lo] < len(dp[j]) && (best < 0 || headVal[j-lo] > headVal[best-lo]) {
					best = j
				}
			}
			b := best - lo
			row = append(row, cell{score: headVal[b], prevPos: best, prevRank: head[b]})
			if head[b]++; head[b] < len(dp[best]) {
				headVal[b] = dp[best][head[b]].score + segScore[b]
			}
		}
		dp[i] = row
	}
	out := make([]Ranked, 0, len(dp[n]))
	for rank := range dp[n] {
		var segs []Segment
		pos, rk := n, rank
		for pos > 0 {
			c := dp[pos][rk]
			segs = append(segs, Segment{Start: c.prevPos, End: pos - 1})
			pos, rk = c.prevPos, c.prevRank
		}
		reverseSegs(segs)
		out = append(out, Ranked{Score: dp[n][rank].score, Segs: segs})
	}
	return out
}
