package topk

import (
	"math"
	"testing"

	"topkdedup/internal/eval"
)

func TestDedupRecoverTruth(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := toyData(seed, 15, 12)
		eng := New(d, toyLevels(), oracleScorer(), Config{})
		res, err := eng.Dedup()
		if err != nil {
			t.Fatal(err)
		}
		// Partition check.
		seen := make([]bool, d.Len())
		var clusters [][]int
		for _, g := range res.Groups {
			clusters = append(clusters, g.Records)
			for _, id := range g.Records {
				if seen[id] {
					t.Fatalf("record %d in two groups", id)
				}
				seen[id] = true
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("record %d missing from dedup", id)
			}
		}
		// With the oracle scorer the grouping must match truth exactly.
		m := eval.PairF1(d, clusters)
		if m.F1 != 1 {
			t.Errorf("seed %d: dedup F1 = %v, want 1", seed, m.F1)
		}
		if b := eval.BCubed(d, clusters); b.F1 != 1 {
			t.Errorf("seed %d: dedup B-cubed = %v, want 1", seed, b.F1)
		}
		if res.Score <= 0 {
			t.Errorf("seed %d: merges endorsed by the oracle must score positive, got %v",
				seed, res.Score)
		}
	}
}

func TestDedupNilScorerReturnsSureComponents(t *testing.T) {
	d := toyData(3, 10, 8)
	eng := New(d, toyLevels(), nil, Config{})
	res, err := eng.Dedup()
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 {
		t.Errorf("nil scorer score = %v, want 0", res.Score)
	}
	// Every group must be name-pure (exact-match sufficient predicate).
	for _, g := range res.Groups {
		name := d.Recs[g.Records[0]].Field("name")
		for _, id := range g.Records {
			if d.Recs[id].Field("name") != name {
				t.Fatal("nil-scorer dedup merged different renderings")
			}
		}
	}
	// Weight ordering.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Weight < res.Groups[i].Weight {
			t.Fatal("groups not weight-sorted")
		}
	}
}

func TestResultProbabilities(t *testing.T) {
	d := toyData(9, 12, 10)
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	probs := res.Probabilities()
	if len(probs) != len(res.Answers) {
		t.Fatalf("probs len %d != answers %d", len(probs), len(res.Answers))
	}
	var sum float64
	for i, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("prob %d out of range: %v", i, p)
		}
		if i > 0 && probs[i-1] < p {
			t.Error("probabilities must follow the score ranking")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	var empty Result
	if empty.Probabilities() != nil {
		t.Error("no answers should give nil probabilities")
	}
}
