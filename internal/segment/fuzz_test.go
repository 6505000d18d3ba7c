package segment

import (
	"fmt"
	"testing"

	"topkdedup/internal/score"
)

// FuzzSegmentDP feeds the R-best segmentation DP arbitrary pair-score
// tables (derived deterministically from the fuzz bytes) and checks its
// structural contract: no panics, ranked scores non-increasing in rank,
// every segmentation tiles [0, n) with segments no wider than the band,
// rank 1 agreeing with the single-best DP, and every rank equal — Score
// and Segs — to the collect-and-sort reference (bestRSort); the
// /16-quantised scores tie constantly, so the tie order is what the last
// check exercises. ci.sh runs a short -fuzztime smoke over the committed
// corpus.
func FuzzSegmentDP(f *testing.F) {
	f.Add([]byte{3, 2, 2, 0x10, 0x90, 0x7f})
	f.Add([]byte{8, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 1, 1, 0xff})
	f.Add([]byte{12, 12, 5, 0x80, 0x40, 0xc0, 0x20})
	f.Add([]byte{0, 0, 7, 0x33})                       // n = 1
	f.Add([]byte{9, 0, 3, 0x10, 0x10, 0xf0})           // maxWidth = 1: one segmentation
	f.Add([]byte{3, 3, 7, 0x20, 0x20, 0x20, 0x20})     // r = 8 = all 2^(n-1) segmentations
	f.Add([]byte{2, 1, 6, 0x08, 0xf8})                 // r > candidates
	f.Add([]byte{13, 5, 7, 0, 0, 0, 0x10, 0, 0, 0x10}) // mostly-zero scores: ties everywhere
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("need header bytes")
		}
		n := 1 + int(data[0])%14
		maxWidth := 1 + int(data[1])%n
		r := 1 + int(data[2])%8
		body := data[3:]
		// Deterministic symmetric pair scores in [-8, +7.9] driven by the
		// remaining fuzz bytes.
		pair := func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			b := body[(i*31+j*17)%len(body)]
			return float64(int8(b)) / 16
		}
		sc := score.NewSegmentScorer(n, maxWidth, pair, nil)
		ranked := BestR(sc, r)
		if len(ranked) == 0 || len(ranked) > r {
			t.Fatalf("BestR returned %d segmentations for r=%d, n=%d", len(ranked), r, n)
		}
		for ri, rk := range ranked {
			if ri > 0 && rk.Score > ranked[ri-1].Score {
				t.Fatalf("rank %d score %v exceeds rank %d score %v (n=%d w=%d r=%d)",
					ri+1, rk.Score, ri, ranked[ri-1].Score, n, maxWidth, r)
			}
			at := 0
			for si, seg := range rk.Segs {
				if seg.Start != at || seg.End < seg.Start {
					t.Fatalf("rank %d segment %d is [%d,%d], expected to start at %d", ri+1, si, seg.Start, seg.End, at)
				}
				if seg.Len() > maxWidth {
					t.Fatalf("rank %d segment %d width %d exceeds band %d", ri+1, si, seg.Len(), maxWidth)
				}
				at = seg.End + 1
			}
			if at != n {
				t.Fatalf("rank %d segmentation covers [0,%d), want [0,%d)", ri+1, at, n)
			}
		}
		// The optimum must agree with the dedicated single-best DP.
		segs, best := Best(sc)
		if best != ranked[0].Score {
			t.Fatalf("Best score %v != BestR rank 1 score %v (n=%d w=%d)", best, ranked[0].Score, n, maxWidth)
		}
		if len(segs) == 0 {
			t.Fatalf("Best returned no segments for n=%d", n)
		}
		requireSameRanked(t, ranked, bestRSort(sc, r), fmt.Sprintf("n=%d w=%d r=%d", n, maxWidth, r))
	})
}
