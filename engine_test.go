package topk

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/records"
)

// Toy domain: entity base = text before ".v"; renderings share the first
// letter. S = exact rendering equality, N = shared first letter, scorer =
// +2 same base / -2 otherwise (a perfect oracle P).
func toyLevels() []Level {
	s := Predicate{
		Name: "S",
		Eval: func(a, b *Record) bool {
			return a.Field("name") != "" && a.Field("name") == b.Field("name")
		},
		Keys: func(r *Record) []string { return []string{"s:" + r.Field("name")} },
	}
	n := Predicate{
		Name: "N",
		Eval: func(a, b *Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *Record) []string {
			v := r.Field("name")
			if v == "" {
				return nil
			}
			return []string{"n:" + v[:1]}
		},
	}
	return []Level{{Sufficient: s, Necessary: n}}
}

func base(name string) string {
	if i := strings.Index(name, ".v"); i >= 0 {
		return name[:i]
	}
	return name
}

func oracleScorer() PairScorer {
	return PairScorerFunc(func(a, b *Record) float64 {
		if base(a.Field("name")) == base(b.Field("name")) {
			return 2
		}
		return -2
	})
}

func toyData(seed int64, entities, maxMentions int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	d := NewDataset("toy", "name")
	for e := 0; e < entities; e++ {
		b := fmt.Sprintf("%c%03d", 'a'+r.Intn(5), e)
		nRend := 1 + r.Intn(3)
		mentions := 1 + r.Intn(maxMentions)
		for k := 0; k < mentions; k++ {
			d.Append(1+0.001*r.Float64(), fmt.Sprintf("E%03d", e),
				fmt.Sprintf("%s.v%d", b, r.Intn(nRend)))
		}
	}
	return d
}

// truthTopK returns the top-k entity weights and record sets.
func truthTopK(d *Dataset, k int) []core.Group {
	groups := core.TruthGroups(d)
	if len(groups) > k {
		groups = groups[:k]
	}
	return groups
}

func TestTopKMatchesTruthWithOracleScorer(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		d := toyData(seed, 20, 15)
		// Under an oracle scorer the truth is the highest-scoring grouping
		// by a margin no fuzzier answer's summed mass over its supporting
		// groupings makes up, so the best answer is exactly the truth.
		eng := New(d, toyLevels(), oracleScorer(), Config{})
		for _, k := range []int{1, 3, 5} {
			res, err := eng.TopK(k, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) == 0 {
				t.Fatalf("seed %d K=%d: no answers", seed, k)
			}
			best := res.Answers[0]
			want := truthTopK(d, k)
			if len(best.Groups) != len(want) {
				t.Fatalf("seed %d K=%d: %d groups, want %d", seed, k, len(best.Groups), len(want))
			}
			for i := range want {
				if diff := best.Groups[i].Weight - want[i].Weight; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("seed %d K=%d group %d: weight %v, want %v",
						seed, k, i, best.Groups[i].Weight, want[i].Weight)
				}
			}
			// The best answer's top group must hold exactly the top
			// entity's records.
			sort.Ints(best.Groups[0].Records)
			wantIDs := append([]int(nil), want[0].Members...)
			sort.Ints(wantIDs)
			if len(best.Groups[0].Records) != len(wantIDs) {
				t.Fatalf("seed %d K=%d: top group has %d records, want %d",
					seed, k, len(best.Groups[0].Records), len(wantIDs))
			}
			for i := range wantIDs {
				if best.Groups[0].Records[i] != wantIDs[i] {
					t.Fatalf("seed %d K=%d: top group records differ", seed, k)
				}
			}
		}
	}
}

func TestTopKAnswersRanked(t *testing.T) {
	d := toyData(3, 15, 12)
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Score < res.Answers[i].Score {
			t.Error("answers must be sorted by decreasing score")
		}
	}
	for _, a := range res.Answers {
		if len(a.Groups) != 3 {
			t.Errorf("every answer must have K groups, got %d", len(a.Groups))
		}
		for i := 1; i < len(a.Groups); i++ {
			if a.Groups[i-1].Weight < a.Groups[i].Weight {
				t.Error("groups within an answer must be weight-sorted")
			}
		}
	}
}

func TestTopKWithoutScorer(t *testing.T) {
	d := toyData(5, 10, 8)
	eng := New(d, toyLevels(), nil, Config{})
	res, err := eng.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("nil scorer should yield a single answer, got %d", len(res.Answers))
	}
	if len(res.Answers[0].Groups) > 3 {
		t.Errorf("answer has %d groups, want <= 3", len(res.Answers[0].Groups))
	}
}

func TestTopKErrors(t *testing.T) {
	d := toyData(1, 5, 5)
	eng := New(d, toyLevels(), nil, Config{})
	if _, err := eng.TopK(0, 1); err == nil {
		t.Error("K=0 should error")
	}
}

func TestTopKExactEarlyExit(t *testing.T) {
	d := NewDataset("t", "name")
	d.Append(1, "E1", "a.v0")
	d.Append(1, "E1", "a.v0")
	d.Append(1, "E2", "b.v0")
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("expected exact early exit")
	}
	if len(res.Answers) != 1 || len(res.Answers[0].Groups) != 2 {
		t.Errorf("unexpected answers: %+v", res.Answers)
	}
}

func TestTopKPruningStatsExposed(t *testing.T) {
	d := toyData(7, 25, 20)
	eng := New(d, toyLevels(), oracleScorer(), Config{})
	res, err := eng.TopK(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruning) == 0 {
		t.Fatal("pruning stats missing")
	}
	st := res.Pruning[0]
	if st.NGroups <= 0 || st.Survivors <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if res.Survivors > st.NGroups {
		t.Error("survivors exceed collapsed group count")
	}
}

func TestEngineRankQueries(t *testing.T) {
	d := toyData(9, 12, 10)
	eng := New(d, toyLevels(), nil, Config{})
	rr, err := eng.TopKRank(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Entries) == 0 {
		t.Fatal("rank query returned nothing")
	}
	tr, err := eng.ThresholdedRank(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Entries {
		if e.Upper < e.Group.Weight {
			t.Errorf("upper bound below weight: %+v", e)
		}
	}
	if _, err := eng.ThresholdedRank(0); err == nil {
		t.Error("threshold 0 should error")
	}
}

func TestTopKSecondAnswerDiffers(t *testing.T) {
	// Construct genuine ambiguity: two same-letter entities with close
	// weights whose merge/split is uncertain (scorer near zero).
	d := NewDataset("t", "name")
	for i := 0; i < 6; i++ {
		d.Append(1, "E0", "a.v0")
	}
	for i := 0; i < 5; i++ {
		d.Append(1, "E1", "a.v1")
	}
	for i := 0; i < 4; i++ {
		d.Append(1, "E2", "b.v0")
	}
	ambiguous := PairScorerFunc(func(a, b *Record) float64 {
		if a.Field("name") == b.Field("name") {
			return 2
		}
		if a.Field("name")[0] == b.Field("name")[0] {
			return 0.01 // nearly undecidable duplicate
		}
		return -2
	})
	eng := New(d, toyLevels(), ambiguous, Config{})
	res, err := eng.TopK(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 2 {
		t.Fatalf("ambiguous instance should admit multiple answers, got %d", len(res.Answers))
	}
	// The two answers must differ in their group structure.
	sig := func(a Answer) string {
		parts := make([]string, len(a.Groups))
		for i, g := range a.Groups {
			parts[i] = fmt.Sprint(g.Records)
		}
		sort.Strings(parts)
		return strings.Join(parts, "|")
	}
	if sig(res.Answers[0]) == sig(res.Answers[1]) {
		t.Error("top two answers should differ structurally")
	}
}

func TestDatasetFacade(t *testing.T) {
	d := NewDataset("x", "f")
	d.Append(1, "E", "v")
	if d.Len() != 1 {
		t.Fatal("facade dataset broken")
	}
	var _ PairScorer = PairScorerFunc(func(a, b *Record) float64 { return 0 })
	var _ = records.New // keep the internal import honest
}
