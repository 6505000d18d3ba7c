package topk

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"topkdedup/internal/experiments"
)

// finalGoldenRow is one K of the final-phase golden: the hash of the
// canonical TopK(K, 3) answers and the engine.final.scored_pairs count.
type finalGoldenRow struct {
	k           int
	answers     string
	scoredPairs int64
}

// canonicalAnswers renders a result bit for bit: every answer's score,
// and every group's weight, representative and member ids, with floats
// as their IEEE-754 bits. Two results render the same iff they are the
// same answers.
func canonicalAnswers(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exact=%v survivors=%d\n", res.Exact, res.Survivors)
	for _, a := range res.Answers {
		fmt.Fprintf(&b, "answer %016x\n", math.Float64bits(a.Score))
		for _, g := range a.Groups {
			fmt.Fprintf(&b, " group w=%016x rep=%d %v\n", math.Float64bits(g.Weight), g.Rep, g.Records)
		}
	}
	return b.String()
}

// checkFinalGolden runs TopK(K, 3) on dd with its trained scorer at every
// K of want and compares the canonical answers' hash and the count of
// scored candidate pairs.
func checkFinalGolden(t *testing.T, dd *experiments.DomainData, want []finalGoldenRow) {
	t.Helper()
	for _, w := range want {
		m := NewMetricsCollector()
		res, err := New(dd.Data, dd.Domain.Levels, dd.Model, Config{Metrics: m}).TopK(w.k, 3)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(canonicalAnswers(res)))
		got := finalGoldenRow{w.k, fmt.Sprintf("%x", sum[:8]), m.CounterValue("engine.final.scored_pairs")}
		if got != w {
			t.Errorf("K=%d:\n got %+v\nwant %+v", w.k, got, w)
		}
	}
}

// TestFinalPhaseGolden pins the end-to-end answers of the final phase —
// the trained scorer P over the survivors' candidate pairs, the
// embedding and the segmentation — on the fixed-seed citation and
// students datasets of TestExactCountsCitations, which pins only the
// pruning. P's feature vectors, the classifier's training and every step
// after the prune feed these hashes, so a change that moves one bit of a
// feature, a weight or a score fails here by name.
func TestFinalPhaseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two scorers")
	}
	t.Run("citations", func(t *testing.T) {
		dd, err := experiments.CitationSetup(3000, true)
		if err != nil {
			t.Fatal(err)
		}
		checkFinalGolden(t, dd, []finalGoldenRow{
			{1, "3e9b6c4100d0fee1", 23},
			{10, "3ca329f5889928d5", 182},
			{50, "271af5e69000b767", 402},
		})
	})
	t.Run("students", func(t *testing.T) {
		dd, err := experiments.StudentSetup(3000, true)
		if err != nil {
			t.Fatal(err)
		}
		checkFinalGolden(t, dd, []finalGoldenRow{
			{1, "eda278f9ff893b22", 1},
			{10, "7d5d45f5aea19815", 25},
			{50, "917c127dc94e7d49", 95},
		})
	})
}
