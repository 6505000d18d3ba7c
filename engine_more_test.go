package topk

import (
	"fmt"
	"sort"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/eval"
	"topkdedup/internal/experiments"
	"topkdedup/internal/predicate"
	"topkdedup/internal/score"
)

func TestTopKMarginalModeRuns(t *testing.T) {
	d := toyData(11, 15, 12)
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers in marginal mode")
	}
	// Marginal scores still rank answers monotonically.
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Score < res.Answers[i].Score {
			t.Error("marginal answers must be score-sorted")
		}
	}
	// The best marginal answer should still recover the truth top-1 group
	// records (the oracle leaves no real ambiguity).
	want := truthTopK(d, 1)[0]
	got := res.Answers[0].Groups[0]
	if got.Weight != want.Weight {
		t.Errorf("marginal top group weight %v, want %v", got.Weight, want.Weight)
	}
}

// TestTopKNarrowWidthStillAnswers gives one entity more fragments than a
// segment may span (score.MaxSegmentWidth): the engine must still produce
// a K-group answer, with that entity under-assembled — never an answer
// group wider than the cap or heavier than the truth.
func TestTopKNarrowWidthStillAnswers(t *testing.T) {
	d := NewDataset("wide", "name")
	const fragments = score.MaxSegmentWidth + 6
	for v := 0; v < fragments; v++ {
		d.Append(1, "E0", fmt.Sprintf("a000.v%d", v))
	}
	for e := 1; e <= 4; e++ {
		for m := 0; m < 3+e; m++ {
			d.Append(1, fmt.Sprintf("E%d", e), fmt.Sprintf("a%03d.v0", e))
		}
	}
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("the pruning decided the answer alone; the test needs the segmentation search")
	}
	if len(res.Answers) == 0 || len(res.Answers[0].Groups) != 3 {
		t.Fatalf("narrow width should still produce a K-group answer: %+v", res.Answers)
	}
	top := res.Answers[0].Groups[0]
	if len(top.Records) > score.MaxSegmentWidth {
		t.Errorf("top group spans %d fragments, more than the cap %d", len(top.Records), score.MaxSegmentWidth)
	}
	want := truthTopK(d, 3)
	for i := range want {
		if res.Answers[0].Groups[i].Weight > want[i].Weight+1e-9 {
			t.Errorf("group %d weight %v exceeds truth %v", i,
				res.Answers[0].Groups[i].Weight, want[i].Weight)
		}
	}
}

func TestAnswerGroupsArePartition(t *testing.T) {
	d := toyData(19, 18, 14)
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ans := range res.Answers {
		seen := map[int]bool{}
		for _, g := range ans.Groups {
			for _, id := range g.Records {
				if seen[id] {
					t.Fatalf("record %d appears in two answer groups", id)
				}
				seen[id] = true
				if id < 0 || id >= d.Len() {
					t.Fatalf("record id %d out of range", id)
				}
			}
			// Weight consistency.
			var w float64
			for _, id := range g.Records {
				w += d.Recs[id].Weight
			}
			if diff := w - g.Weight; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("group weight %v != sum of member weights %v", g.Weight, w)
			}
		}
	}
}

// Full integration: citation domain + trained classifier through the
// public API, scored against ground truth.
func TestEngineCitationIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dd, err := experiments.CitationSetup(experiments.SmallScale.Citations, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(dd.Data, dd.Domain.Levels, dd.Model, Config{})
	const k = 5
	res, err := eng.TopK(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	// Compare the best answer against ground truth: every answer group
	// should be dominated by a single true entity, and the top entities
	// should be among the true heavy hitters.
	truth := core.TruthGroups(dd.Data)
	topTruth := map[string]bool{}
	for i := 0; i < 2*k && i < len(truth); i++ {
		topTruth[dd.Data.Recs[truth[i].Rep].Truth] = true
	}
	pure, hits := 0, 0
	for _, g := range res.Answers[0].Groups {
		counts := map[string]int{}
		for _, id := range g.Records {
			counts[dd.Data.Recs[id].Truth]++
		}
		best, bestC := "", 0
		for l, c := range counts {
			if c > bestC {
				best, bestC = l, c
			}
		}
		if float64(bestC) >= 0.8*float64(len(g.Records)) {
			pure++
		}
		if topTruth[best] {
			hits++
		}
	}
	if pure < k-1 {
		t.Errorf("only %d of %d answer groups are >=80%% pure", pure, k)
	}
	if hits < k-1 {
		t.Errorf("only %d of %d answer groups correspond to true top-%d entities", hits, k, 2*k)
	}
	// And the clustering of survivors should agree well with truth.
	var clusters [][]int
	for _, g := range res.Answers[0].Groups {
		clusters = append(clusters, g.Records)
	}
	m := eval.PairF1(dd.Data.Subset(flatten(clusters)), nil)
	_ = m // full-dataset F1 isn't defined for partial answers; purity above suffices
}

func flatten(clusters [][]int) []int {
	var out []int
	for _, c := range clusters {
		out = append(out, c...)
	}
	sort.Ints(out)
	return out
}

// Failure injection: an invalid sufficient predicate (fires on
// non-duplicates) is caught by predicate validation before it can poison
// a query.
func TestInvalidSufficientPredicateIsDetected(t *testing.T) {
	d := toyData(23, 10, 8)
	bogus := Predicate{
		Name: "bogus-S",
		Eval: func(a, b *Record) bool {
			// Fires whenever first letters match — merges different entities.
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *Record) []string {
			v := r.Field("name")
			if v == "" {
				return nil
			}
			return []string{v[:1]}
		},
	}
	violations := predicate.ValidateSufficient(d, bogus, 0)
	if len(violations) == 0 {
		t.Fatal("validation should flag the bogus sufficient predicate")
	}
}
