// FuzzBoundMerge fuzzes the heart of the cross-shard bound exchange:
// random small datasets are pushed through the partitioner, the per-shard
// workers, and the full sharded pipeline, and four properties that must
// hold by construction are asserted:
//
//  1. CPN decomposition exactness: at every scanned prefix of the merged
//     global rank order, the single-machine Algorithm-1 bound equals the
//     sum of the per-shard bounds over the shards' slices of that prefix
//     (canopy components never straddle shards, so the Min-fill
//     elimination decomposes).
//  2. Full equality: shard.Run matches core.PrunedDedup — groups, order,
//     per-level NGroups/MRank/LowerBound/BoundEvals/Survivors, ExactlyK —
//     for several shard counts (collapse and prune eval counters and
//     wall times excluded; their aggregation is shard-local by design).
//  3. Truth soundness: with predicates that group exactly by entity,
//     every entity strictly heavier than the K-th heaviest survives
//     pruning.
//  4. Bound sanity: a positive lower bound is always certified at rank
//     >= K.
package shard

import (
	"encoding/json"
	"fmt"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// fuzzLevels returns one predicate level over the single "name" field:
// sufficient = exact name equality, necessary = shared first letter.
// Fuzz records encode the entity in the name and share first letters
// across entities (see fuzzDataset), so the sufficient predicate groups
// exactly by entity while the necessary predicate builds multi-entity
// canopies — the shape that exercises the bound exchange.
func fuzzLevels() []predicate.Level {
	s := predicate.P{
		Name: "S",
		Eval: func(a, b *records.Record) bool {
			return a.Field("name") != "" && a.Field("name") == b.Field("name")
		},
		Keys: func(r *records.Record) []string { return []string{"s:" + r.Field("name")} },
	}
	n := predicate.P{
		Name: "N",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *records.Record) []string {
			v := r.Field("name")
			if v == "" {
				return nil
			}
			return []string{"n:" + v[:1]}
		},
	}
	return []predicate.Level{{Sufficient: s, Necessary: n}}
}

// fuzzDataset decodes fuzz bytes into (k, dataset): the first byte picks
// K, then each byte pair is one record — entity in [0, 16), weight in
// [1, 2). The name determines the entity (so the sufficient predicate is
// exact) and its first letter only the entity mod 4 (so necessary-
// predicate canopies span entities). At most 64 records.
func fuzzDataset(data []byte) (int, *records.Dataset) {
	if len(data) < 3 {
		return 0, nil
	}
	k := 1 + int(data[0])%8
	rest := data[1:]
	if len(rest) > 128 {
		rest = rest[:128]
	}
	d := records.New("fuzz", "name")
	for i := 0; i+1 < len(rest); i += 2 {
		e := int(rest[i]) % 16
		w := 1 + float64(rest[i+1])/256
		d.Append(w, fmt.Sprintf("E%02d", e), fmt.Sprintf("%c%02d", 'a'+e%4, e))
	}
	if d.Len() == 0 {
		return 0, nil
	}
	return k, d
}

// stripShardLocal zeroes the stats fields the sharded pipeline may
// legitimately report differently (see the package comment).
func stripShardLocal(stats []core.LevelStats) {
	for i := range stats {
		stats[i].CollapseEvals, stats[i].PruneEvals = 0, 0
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
	}
}

func resultBytes(t *testing.T, res *core.Result) string {
	t.Helper()
	stripShardLocal(res.Stats)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func FuzzBoundMerge(f *testing.F) {
	// One heavy entity amid noise; a uniform spread; heavy ties; more
	// entities than K; a singleton.
	f.Add([]byte{0x02, 0x01, 0x80, 0x01, 0x90, 0x01, 0xa0, 0x05, 0x10, 0x09, 0x20})
	f.Add([]byte{0x07, 0x00, 0x40, 0x01, 0x40, 0x02, 0x40, 0x03, 0x40, 0x04, 0x40, 0x05, 0x40})
	f.Add([]byte{0x01, 0x03, 0xff, 0x07, 0xff, 0x0b, 0xff, 0x0f, 0xff})
	f.Add([]byte{0x05, 0x02, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, d := fuzzDataset(data)
		if d == nil {
			return
		}
		levels := fuzzLevels()

		// Reference single-machine run.
		want, err := core.PrunedDedup(d, levels, core.Options{K: k, PrunePasses: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := resultBytes(t, want)

		// Property 4: a positive bound is certified at rank >= K.
		for _, st := range want.Stats {
			if st.LowerBound > 0 && st.MRank < k {
				t.Fatalf("level %d: lower bound %g certified at rank %d < k=%d", st.Level, st.LowerBound, st.MRank, k)
			}
		}

		// Property 3: the sufficient predicate groups exactly by entity,
		// so the collapse output is the entity list; every entity strictly
		// heavier than the K-th must survive the full pipeline.
		entities, _ := core.Collapse(d, core.SingletonGroups(d), levels[0].Sufficient)
		core.SortGroupsByWeight(entities)
		if len(entities) >= k {
			kth := entities[k-1].Weight
			surviving := make(map[int]bool, len(want.Groups))
			for _, g := range want.Groups {
				surviving[g.Rep] = true
			}
			for _, e := range entities {
				if e.Weight > kth && !surviving[e.Rep] {
					t.Fatalf("entity rep %d (weight %g > k-th %g) pruned away", e.Rep, e.Weight, kth)
				}
			}
		}

		for _, s := range []int{2, 3, 5} {
			// Property 2: the sharded pipeline is byte-identical.
			got, _, err := Run(d, nil, levels, Options{K: k, Shards: s, PrunePasses: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if gotBytes := resultBytes(t, got); gotBytes != wantBytes {
				t.Fatalf("shards=%d k=%d: sharded != single-machine\nsharded: %s\nsingle:  %s", s, k, gotBytes, wantBytes)
			}

			// Property 1 (white-box): after collapsing level 0 on each
			// shard, the merged rank order matches the global one, and at
			// every prefix the global CPN bound equals the sum of the
			// per-shard CPN bounds over the prefix's per-shard slices.
			part := Split(d, core.SingletonGroups(d), levels, s)
			workers := make([]*Worker, len(part.Parts))
			metas := make([][]GroupMeta, len(part.Parts))
			for i, p := range part.Parts {
				workers[i] = NewWorker(d, p.Groups, levels, Options{K: k, Workers: 1})
				metas[i], _ = workers[i].Collapse(0)
			}
			merged, shardOf := mergeMetas(metas)
			if len(merged) != len(entities) {
				t.Fatalf("shards=%d: merged %d groups, global collapse has %d", s, len(merged), len(entities))
			}
			counts := make([]int, len(part.Parts))
			for i, g := range entities {
				if merged[i].Rep != g.Rep || merged[i].Weight != g.Weight {
					t.Fatalf("shards=%d: merged rank %d = (rep %d, %g), global = (rep %d, %g)",
						s, i, merged[i].Rep, merged[i].Weight, g.Rep, g.Weight)
				}
				counts[shardOf[i]]++
			}
			sc := core.NewBoundScanner(d, entities, levels[0].Necessary, 1)
			sc.ScanHits(len(entities))
			for i, w := range workers {
				w.Scan(counts[i])
			}
			for i := range counts {
				counts[i] = 0
			}
			for p := 0; p <= len(merged); p++ {
				sum := 0
				for i, w := range workers {
					sum += w.CPN(counts[i])
				}
				if global := sc.CPNAt(p); global != sum {
					t.Fatalf("shards=%d prefix %d: global CPN %d != shard sum %d", s, p, global, sum)
				}
				if p < len(merged) {
					counts[shardOf[p]]++
				}
			}
		}
	})
}
