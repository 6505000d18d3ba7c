package segment

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"topkdedup/internal/score"
)

// bestRSort is the reference BestR is held to: the selection BestR used
// before it merged — collect every candidate cell of a position, sort the
// lot by (score desc, prevPos desc, prevRank asc), keep the first r.
func bestRSort(sc *score.SegmentScorer, r int) []Ranked {
	n, w := sc.N(), sc.MaxWidth()
	if n == 0 || r < 1 {
		return nil
	}
	type cell struct {
		score             float64
		prevPos, prevRank int
	}
	dp := make([][]cell, n+1)
	dp[0] = []cell{{score: 0, prevPos: -1}}
	for i := 1; i <= n; i++ {
		var cands []cell
		for j := max(i-w, 0); j < i; j++ {
			s := sc.Score(j, i-1)
			for rank, pe := range dp[j] {
				cands = append(cands, cell{score: pe.score + s, prevPos: j, prevRank: rank})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			if cands[a].prevPos != cands[b].prevPos {
				return cands[a].prevPos > cands[b].prevPos
			}
			return cands[a].prevRank < cands[b].prevRank
		})
		if len(cands) > r {
			cands = cands[:r]
		}
		dp[i] = cands
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

// requireSameRanked fails unless got equals want rank by rank, in Score
// (bit for bit) and in Segs — ties included, which is what pins the
// merge's order to the sort's.
func requireSameRanked(t testing.TB, got, want []Ranked, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segmentations, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || !reflect.DeepEqual(got[i].Segs, want[i].Segs) {
			t.Fatalf("%s rank %d: got %v %v, reference %v %v", label, i+1, got[i].Score, got[i].Segs, want[i].Score, want[i].Segs)
		}
	}
}

// tiedScorer draws pair scores from a handful of multiples of 1/4, so
// equal totals across start positions and across ranks are the rule.
func tiedScorer(seed int64, n, width int) *score.SegmentScorer {
	rnd := rand.New(rand.NewSource(seed))
	vals := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rnd.Intn(5)-2) / 4
			vals[i*n+j], vals[j*n+i] = v, v
		}
	}
	return score.NewSegmentScorer(n, width, func(i, j int) float64 { return vals[i*n+j] }, nil)
}

func TestBestRMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		n := 1 + int(seed*7%23)
		width := 1 + int(seed*3%int64(n))
		for _, r := range []int{1, 2, 5, 16, 28, 1000} {
			for name, sc := range map[string]*score.SegmentScorer{
				"random": randScorer(seed, n, width),
				"tied":   tiedScorer(seed, n, width),
			} {
				label := fmt.Sprintf("%s seed=%d n=%d w=%d r=%d", name, seed, n, width, r)
				requireSameRanked(t, BestR(sc, r), bestRSort(sc, r), label)
			}
		}
	}
}

func TestBestRTopIsBest(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		n := 3 + int(seed%5)
		sc := randScorer(seed, n, n)
		ranked := BestR(sc, 3)
		if len(ranked) == 0 {
			t.Fatal("no segmentations")
		}
		_, best := Best(sc)
		if math.Abs(ranked[0].Score-best) > 1e-9 {
			t.Errorf("seed %d: BestR[0] = %v, Best = %v", seed, ranked[0].Score, best)
		}
	}
}

func TestBestRMatchesBruteForce(t *testing.T) {
	for seed := int64(20); seed <= 32; seed++ {
		n := 3 + int(seed%4)
		sc := randScorer(seed, n, n)
		const r = 5
		ranked := BestR(sc, r)
		// Brute force: all segmentations scored and sorted.
		var scores []float64
		for _, segs := range allSegmentations(n, n) {
			scores = append(scores, segScore(sc, segs))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		want := r
		if len(scores) < want {
			want = len(scores)
		}
		if len(ranked) != want {
			t.Fatalf("seed %d: got %d segmentations, want %d", seed, len(ranked), want)
		}
		for i := 0; i < want; i++ {
			if math.Abs(ranked[i].Score-scores[i]) > 1e-9 {
				t.Errorf("seed %d rank %d: %v, want %v", seed, i, ranked[i].Score, scores[i])
			}
		}
	}
}

func TestBestRSegmentationsValidAndDistinct(t *testing.T) {
	sc := randScorer(7, 8, 4)
	ranked := BestR(sc, 6)
	seen := map[string]bool{}
	for _, rk := range ranked {
		// Valid cover of [0, n).
		next := 0
		key := ""
		for _, s := range rk.Segs {
			if s.Start != next {
				t.Fatalf("gap in segmentation %v", rk.Segs)
			}
			if s.Len() > 4 {
				t.Fatalf("segment %v exceeds width cap", s)
			}
			next = s.End + 1
			key += keyOf([]Segment{s})
		}
		if next != 8 {
			t.Fatalf("segmentation %v does not cover all positions", rk.Segs)
		}
		if seen[key] {
			t.Fatalf("duplicate segmentation %v", rk.Segs)
		}
		seen[key] = true
		// Reported score matches the segments.
		if math.Abs(segScore(sc, rk.Segs)-rk.Score) > 1e-9 {
			t.Errorf("score mismatch for %v", rk.Segs)
		}
	}
	// Sorted by decreasing score.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Error("segmentations not sorted")
		}
	}
}

func TestBestREdgeCases(t *testing.T) {
	sc := randScorer(1, 4, 4)
	if got := BestR(sc, 0); got != nil {
		t.Error("r=0 should return nil")
	}
	// Fewer segmentations than r: return all of them.
	tiny := randScorer(2, 2, 2)
	got := BestR(tiny, 10)
	if len(got) != 2 { // {01} and {0}{1}
		t.Errorf("expected 2 segmentations of 2 items, got %d", len(got))
	}
	empty := randScorer(3, 0, 1)
	if got := BestR(empty, 3); got != nil {
		t.Error("empty input should return nil")
	}
}

// BenchmarkBestR measures the R-best DP at the engine's shape: a few
// hundred surviving groups, the score.MaxSegmentWidth band, and the 6R+10
// candidates the final phase asks for at R = 3 and R = 1.
func BenchmarkBestR(b *testing.B) {
	sc := randScorer(1, 600, 24)
	for _, r := range []int{28, 16} {
		b.Run(fmt.Sprintf("n600_w24_r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRanked = BestR(sc, r)
			}
		})
	}
}

var benchRanked []Ranked
