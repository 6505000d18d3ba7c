package stream_test

import (
	"encoding/json"
	"testing"

	topk "topkdedup"
	"topkdedup/internal/stream"
)

// TestSnapshotResultIsSharedReadOnly pins the contract the serving
// layer's per-epoch memo of prunings rests on: what finishes a query
// from a pruning result — the engine's final phase and the rank query —
// writes nothing reachable from it, so one *core.Result can serve every
// (K, R) and /rank?k=K of an epoch. Both run twice on one pruning; it,
// and the snapshot's groups behind it, must encode to the same bytes
// before and after, and the second answers must equal the first.
func TestSnapshotResultIsSharedReadOnly(t *testing.T) {
	levels := stream.ToyLevels()
	acc, err := stream.New("t", []string{"name"}, levels)
	if err != nil {
		t.Fatal(err)
	}
	stream.Feed(t, acc, 31, 60, 8)
	snap := acc.Snapshot()
	scorer := topk.PairScorerFunc(func(a, b *topk.Record) float64 {
		na, nb := a.Field("name"), b.Field("name")
		common := 0
		for common < len(na) && common < len(nb) && na[common] == nb[common] {
			common++
		}
		return float64(2*common) - 6
	})
	encode := func(v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	const k = 3
	pd, err := snap.TopK(k, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pdBefore, groupsBefore := encode(pd), encode(snap.Groups())
	var answers, ranks [2]string
	for i := range answers {
		eng := topk.New(snap.Dataset(), levels, scorer, topk.Config{})
		res, err := eng.TopKFrom(pd, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact {
			t.Fatal("the final phase did not run: pick data that leaves ambiguity")
		}
		rank, err := eng.TopKRankFrom(pd, k)
		if err != nil {
			t.Fatal(err)
		}
		answers[i], ranks[i] = encode(res), encode(rank)
	}
	if answers[0] != answers[1] || ranks[0] != ranks[1] {
		t.Error("finishing twice from one pruning result gave different answers")
	}
	if encode(pd) != pdBefore {
		t.Error("finishing a query wrote to the shared pruning result")
	}
	if encode(snap.Groups()) != groupsBefore {
		t.Error("finishing a query wrote to the snapshot's groups")
	}
}
