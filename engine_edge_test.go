package topk

import (
	"context"
	"errors"
	"testing"

	"topkdedup/internal/core"
)

// TestTopKRBeyondFeasible asks for far more alternative answers than the
// instance can support: R is capped by the number of distinct
// segmentations of the surviving groups, so the engine must return
// between 1 and R answers, distinct, with non-increasing scores — never
// pad, duplicate, or fail.
func TestTopKRBeyondFeasible(t *testing.T) {
	tests := []struct {
		name string
		d    *Dataset
		k, r int
	}{
		{"two records", func() *Dataset {
			d := NewDataset("t", "name")
			d.Append(1, "E0", "a.v0")
			d.Append(1, "E0", "a.v1")
			return d
		}(), 1, 10},
		{"single record", func() *Dataset {
			d := NewDataset("t", "name")
			d.Append(1, "E0", "a.v0")
			return d
		}(), 1, 25},
		{"small ambiguous instance", toyData(42, 4, 3), 2, 50},
		{"k beyond groups too", toyData(43, 3, 2), 20, 20},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(tc.d, toyLevels(), oracleScorer(), Config{})
			res, err := eng.TopK(tc.k, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) < 1 || len(res.Answers) > tc.r {
				t.Fatalf("%d answers for r=%d, want 1..%d", len(res.Answers), tc.r, tc.r)
			}
			seen := make(map[string]bool)
			for i, ans := range res.Answers {
				if i > 0 && ans.Score > res.Answers[i-1].Score {
					t.Fatalf("answer %d score %v exceeds answer %d score %v", i+1, ans.Score, i, res.Answers[i-1].Score)
				}
				key := ""
				for _, g := range ans.Groups {
					key += "|"
					for _, id := range g.Records {
						key += "," + string(rune(id+'0'))
					}
				}
				if seen[key] {
					t.Fatalf("duplicate answer %d: %+v", i+1, ans)
				}
				seen[key] = true
			}
		})
	}
}

// TestTopKNilScorerCapsR checks the documented nil-scorer behaviour: the
// engine still answers, with R capped at 1.
func TestTopKNilScorerCapsR(t *testing.T) {
	d := toyData(44, 5, 4)
	eng := New(d, toyLevels(), nil, Config{})
	res, err := eng.TopK(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("nil scorer returned %d answers, want exactly 1", len(res.Answers))
	}
}

// TestTopKFromCtxCancelledInFinalPhase prunes under a live context, then
// finishes the query under a cancelled one: the final phase must notice
// the done context, return context.Canceled and no answers, rather than
// run its scoring, embedding and segmentation to the end.
func TestTopKFromCtxCancelledInFinalPhase(t *testing.T) {
	d := toyData(42, 20, 15)
	levels := toyLevels()
	const k = 3
	pd, err := core.PrunedDedupCtx(context.Background(), d, levels, core.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if pd.ExactlyK || len(pd.Groups) <= k {
		t.Fatalf("the pruning decided the answer alone (%d survivors); the test needs one that reaches the final phase", len(pd.Groups))
	}
	eng := New(d, levels, oracleScorer(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.TopKFromCtx(ctx, pd, k, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got answers %+v under a cancelled context, want none", res.Answers)
	}
}
