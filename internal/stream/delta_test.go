package stream

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"topkdedup/internal/core"
)

// scratchGroups recomputes the level-1 collapse from scratch: the toy
// domain's sufficient predicate is exact name equality, so the closure
// is a plain group-by-name sweep in record-id order — the reference the
// delta rebuild must match byte for byte.
func scratchGroups(inc *Incremental) []core.Group {
	byName := make(map[string]int)
	var groups []core.Group
	for _, r := range inc.data.Recs {
		name := r.Field("name")
		if gi, ok := byName[name]; ok {
			g := &groups[gi]
			g.Members = append(g.Members, r.ID)
			g.Weight += r.Weight
			if r.Weight > inc.data.Recs[g.Rep].Weight {
				g.Rep = r.ID
			}
		} else {
			byName[name] = len(groups)
			groups = append(groups, core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight})
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Weight != groups[j].Weight {
			return groups[i].Weight > groups[j].Weight
		}
		return groups[i].Rep < groups[j].Rep
	})
	return groups
}

// TestStreamGroupsMatchScratch pins the delta rebuild: after every
// random ingest batch, Groups (which re-collapses only dirty canopy
// components) must equal the from-scratch sweep exactly — member order,
// weight bit patterns, representative choice, and global sort.
func TestStreamGroupsMatchScratch(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		inc, err := New("delta", []string{"name"}, toyLevels())
		if err != nil {
			t.Fatal(err)
		}
		entities := 5 + rng.Intn(50)
		for batch := 0; batch < 10; batch++ {
			for i := 0; i < 1+rng.Intn(12); i++ {
				e := rng.Intn(entities)
				inc.Add(float64(rng.Intn(15))+rng.Float64(), fmt.Sprintf("E%03d", e),
					fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, rng.Intn(2)))
			}
			got := inc.Groups()
			want := scratchGroups(inc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d: delta groups diverge from scratch\n got=%v\nwant=%v", trial, batch, got, want)
			}
		}
	}
}

// stripTimes zeroes the wall-clock phase durations, which legitimately
// differ run to run.
func stripTimes(res *core.Result) {
	for i := range res.Stats {
		res.Stats[i].CollapseTime = 0
		res.Stats[i].BoundTime = 0
		res.Stats[i].PruneTime = 0
	}
}

// canonGrid erases the fields that legitimately differ between the
// incremental and scratch pipelines at a given sharding: phase times
// always; collapse evals always (the maintained collapse amortised them
// at ingest); prune evals only under sharding, where the coordinator's
// split changes how work is counted but not what is answered (the PR-4
// sharding contract). Bound evals stay: every part count consumes the
// same ranks.
func canonGrid(res *core.Result, sharded bool) {
	stripTimes(res)
	for i := range res.Stats {
		res.Stats[i].CollapseEvals = 0
		if sharded {
			res.Stats[i].PruneEvals = 0
		}
	}
}

// TestIncrementalGridMatchesScratch is the Workers x Shards acceptance
// grid: at every combination, a snapshot query seeded with the
// maintained collapse must equal the from-scratch batch pipeline —
// groups, weights, member
// order, MRank, LowerBound, everything but the fields canonGrid erases.
func TestIncrementalGridMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inc, err := New("grid", []string{"name"}, toyLevels())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 30+rng.Intn(40); i++ {
			e := rng.Intn(60)
			inc.Add(float64(rng.Intn(20))+rng.Float64(), fmt.Sprintf("E%03d", e),
				fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, rng.Intn(2)))
		}
		for _, shards := range []int{1, 2, 3, 5} {
			inc.SetShards(shards)
			snap := inc.Snapshot()
			for _, workers := range []int{1, 2, 4} {
				for _, k := range []int{1, 3, 6} {
					// Fresh: the per-K memo would answer every workers
					// value after the first from the first one's run.
					got, err := snap.FreshTopKCtx(context.Background(), k, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.PrunedDedup(snap.Dataset(), toyLevels(), core.Options{K: k, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					canonGrid(got, shards > 1)
					canonGrid(want, shards > 1)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d shards=%d workers=%d k=%d: incremental diverges from scratch\n got=%+v\nwant=%+v",
							round, shards, workers, k, got, want)
					}
				}
			}
		}
	}
}
