package rankquery

import (
	"context"
	"fmt"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/records"
)

// buildDataset appends name/truth/weight triples in order.
type edgeRecord struct {
	name, truth string
	weight      float64
}

func buildDataset(recs []edgeRecord) *records.Dataset {
	d := records.New("edge", "name")
	for _, r := range recs {
		w := r.weight
		if w == 0 {
			w = 1
		}
		d.Append(w, r.truth, r.name)
	}
	return d
}

// TestTopKRankEdgeCases drives TopKRank through the degenerate shapes a
// serving layer meets in practice: K exceeding the number of distinct
// groups, datasets of nothing but singletons (isolated and fully
// mergeable), and the empty dataset.
func TestTopKRankEdgeCases(t *testing.T) {
	tests := []struct {
		name        string
		recs        []edgeRecord
		k           int
		wantEntries int
		wantSettled bool
		allResolved bool
		allWeight1  bool
	}{
		{
			name: "K exceeds distinct groups",
			recs: []edgeRecord{
				{name: "a.v0", truth: "E0"}, {name: "a.v0", truth: "E0"},
				{name: "b.v0", truth: "E1"},
				{name: "c.v0", truth: "E2"},
			},
			k:           10,
			wantEntries: 3,
			// Fewer groups than K exist, so a top-K ranking can never
			// settle, but every group must still come back, resolved.
			wantSettled: false,
			allResolved: true,
		},
		{
			name: "all singletons, isolated letters",
			recs: []edgeRecord{
				{name: "a.v0"}, {name: "b.v0"}, {name: "c.v0"}, {name: "d.v0"}, {name: "e.v0"},
			},
			k:           3,
			wantEntries: 5,
			// Ties at weight 1 are rank conflicts: weight >= u fails only
			// when strictly below, so equal-weight isolated groups resolve.
			wantSettled: true,
			allResolved: true,
			allWeight1:  true,
		},
		{
			name: "all singletons, one shared letter",
			recs: []edgeRecord{
				{name: "a.v0"}, {name: "a.v1"}, {name: "a.v2"}, {name: "a.v3"},
			},
			k:           2,
			wantEntries: 4,
			// Everything could merge with everything: nothing resolves.
			wantSettled: false,
			allWeight1:  true,
		},
		{
			name:        "empty dataset",
			recs:        nil,
			k:           3,
			wantEntries: 0,
			wantSettled: false,
		},
		{
			name:        "single record",
			recs:        []edgeRecord{{name: "a.v0", truth: "E0"}},
			k:           1,
			wantEntries: 1,
			wantSettled: true,
			allResolved: true,
			allWeight1:  true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := buildDataset(tc.recs)
			rr, err := topKRank(d, toyLevels(), core.Options{K: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			if len(rr.Entries) != tc.wantEntries {
				t.Fatalf("entries = %d, want %d: %+v", len(rr.Entries), tc.wantEntries, rr.Entries)
			}
			if rr.Settled != tc.wantSettled {
				t.Errorf("Settled = %v, want %v: %+v", rr.Settled, tc.wantSettled, rr.Entries)
			}
			for i, e := range rr.Entries {
				if e.Upper < e.Group.Weight {
					t.Errorf("entry %d: upper %v below weight %v", i, e.Upper, e.Group.Weight)
				}
				if i > 0 && rr.Entries[i-1].Group.Weight < e.Group.Weight {
					t.Errorf("entries not sorted by weight at %d", i)
				}
				if tc.allResolved && !e.Resolved {
					t.Errorf("entry %d not resolved: %+v", i, e)
				}
				if tc.allWeight1 && e.Group.Weight != 1 {
					t.Errorf("entry %d weight %v, want 1", i, e.Group.Weight)
				}
			}
		})
	}
}

// TestThresholdedRankEdgeCases covers the threshold query's degenerate
// shapes: a threshold no group can reach, a threshold below every group,
// all-singleton inputs, and the empty dataset.
func TestThresholdedRankEdgeCases(t *testing.T) {
	tests := []struct {
		name        string
		recs        []edgeRecord
		t           float64
		wantAbove   int  // entries with weight > t expected in the answer
		wantSettled bool // exact answer determined
	}{
		{
			name: "threshold above every group",
			recs: []edgeRecord{
				{name: "a.v0", truth: "E0"}, {name: "a.v0", truth: "E0"},
				{name: "b.v0", truth: "E1"},
			},
			t:           100,
			wantAbove:   0,
			wantSettled: true,
		},
		{
			name: "threshold below every group, isolated letters",
			recs: []edgeRecord{
				{name: "a.v0"}, {name: "b.v0"}, {name: "c.v0"},
			},
			t:           0.5,
			wantAbove:   3,
			wantSettled: true,
		},
		{
			name: "all singletons, one shared letter, reachable threshold",
			recs: []edgeRecord{
				{name: "a.v0"}, {name: "a.v1"}, {name: "a.v2"},
			},
			// No group exceeds 1.5 yet, but merges could cross it: the
			// query must not settle.
			t:           1.5,
			wantAbove:   0,
			wantSettled: false,
		},
		{
			name:        "empty dataset",
			recs:        nil,
			t:           1,
			wantAbove:   0,
			wantSettled: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := buildDataset(tc.recs)
			rr, err := ThresholdedRank(context.Background(), d, toyLevels(), core.Options{Threshold: tc.t})
			if err != nil {
				t.Fatal(err)
			}
			above := 0
			for _, e := range rr.Entries {
				if e.Group.Weight > tc.t {
					above++
				}
			}
			if above != tc.wantAbove {
				t.Errorf("entries above threshold = %d, want %d: %+v", above, tc.wantAbove, rr.Entries)
			}
			if rr.Settled != tc.wantSettled {
				t.Errorf("Settled = %v, want %v: %+v", rr.Settled, tc.wantSettled, rr.Entries)
			}
		})
	}
}

// TestTopKRankKSweep sweeps K past the group count on one dataset and
// checks the entry set can only shrink or hold as K grows (a larger K
// means a weaker prune bound M, so more groups survive — never fewer).
func TestTopKRankKSweep(t *testing.T) {
	d := genDataset(7, 8, 6)
	prev := -1
	for k := 1; k <= 20; k++ {
		rr, err := topKRank(d, toyLevels(), core.Options{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if prev >= 0 && len(rr.Entries) < prev {
			t.Fatalf("k=%d: entries shrank from %d to %d as K grew", k, prev, len(rr.Entries))
		}
		prev = len(rr.Entries)
	}
	if prev == 0 {
		t.Fatal(fmt.Sprint("sweep ended with no entries"))
	}
}
