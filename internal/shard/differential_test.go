// Black-box differential tests: the public engine with Config.Shards
// set must answer TopK and rank queries byte-identically to the
// unsharded engine, across synthetic domains and shard counts. Lives in
// package shard_test because it imports the root package (which itself
// imports internal/shard).
package shard_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	topk "topkdedup"
	"topkdedup/internal/domains"
)

// domainSpec is one synthetic domain the differential sweep runs over.
type domainSpec struct {
	name   string
	levels []topk.Level
	scorer topk.PairScorer
	// render draws one mention string for entity e.
	render func(r *rand.Rand, e int) string
}

// toyDomain: sufficient = exact string match, necessary = shared first
// letter. Cheap, high-collision blocking.
func toyDomain() domainSpec {
	levels, scorer := toyTestLevels()
	return domainSpec{
		name:   "toy",
		levels: levels,
		scorer: scorer,
		render: func(r *rand.Rand, e int) string {
			return fmt.Sprintf("%c%03d.v%d", 'a'+e%8, e, r.Intn(3))
		},
	}
}

// genericDomain: the production field-similarity schedule (3-gram
// blocking, Jaccard necessary predicate, TF-IDF-free scorer) that
// dedupcli and topkd serve.
func genericDomain() domainSpec {
	levels, scorer := domains.Generic("name", 0.5)
	names := []string{"acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "cyberdyne"}
	suffixes := []string{"", " inc", " corp", " co", " llc"}
	return domainSpec{
		name:   "generic",
		levels: levels,
		scorer: topk.PairScorerFunc(scorer),
		render: func(r *rand.Rand, e int) string {
			return names[e%len(names)] + fmt.Sprintf("%d", e) + suffixes[r.Intn(len(suffixes))]
		},
	}
}

func toyTestLevels() ([]topk.Level, topk.PairScorer) {
	s := topk.Predicate{
		Name: "S",
		Eval: func(a, b *topk.Record) bool {
			return a.Field("name") != "" && a.Field("name") == b.Field("name")
		},
		Keys: func(r *topk.Record) []string { return []string{"s:" + r.Field("name")} },
	}
	n := topk.Predicate{
		Name: "N",
		Eval: func(a, b *topk.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *topk.Record) []string {
			v := r.Field("name")
			if v == "" {
				return nil
			}
			return []string{"n:" + v[:1]}
		},
	}
	scorer := topk.PairScorerFunc(func(a, b *topk.Record) float64 {
		na, nb := a.Field("name"), b.Field("name")
		common := 0
		for common < len(na) && common < len(nb) && na[common] == nb[common] {
			common++
		}
		return float64(2*common) - 6
	})
	return []topk.Level{{Sufficient: s, Necessary: n}}, scorer
}

// mention is one generated record, kept so failures can be shrunk and
// dumped.
type mention struct {
	weight float64
	truth  string
	name   string
}

func buildDataset(ms []mention) *topk.Dataset {
	d := topk.NewDataset("diff", "name")
	for _, m := range ms {
		d.Append(m.weight, m.truth, m.name)
	}
	return d
}

// stripVariable zeroes phase timings and the collapse and prune eval
// counters: the only stats fields the sharded pipeline may legitimately
// report differently (see the shard package comment).
func stripVariable(stats []topk.LevelStats) {
	for i := range stats {
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
		stats[i].CollapseEvals, stats[i].PruneEvals = 0, 0
	}
}

func topkBytes(t *testing.T, dom domainSpec, ms []mention, shards, k, r int) string {
	t.Helper()
	eng := topk.New(buildDataset(ms), dom.levels, dom.scorer, topk.Config{Shards: shards, Workers: 1})
	res, err := eng.TopK(k, r)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", dom.name, shards, err)
	}
	stripVariable(res.Pruning)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func rankBytes(t *testing.T, dom domainSpec, ms []mention, shards, k int) string {
	t.Helper()
	eng := topk.New(buildDataset(ms), dom.levels, dom.scorer, topk.Config{Shards: shards, Workers: 1})
	res, err := eng.TopKRank(k)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", dom.name, shards, err)
	}
	stripVariable(res.PrunedStats)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// shrinkMentions greedily drops records while the sharded/unsharded
// mismatch persists, so failures dump a near-minimal dataset.
func shrinkMentions(t *testing.T, dom domainSpec, ms []mention, shards, k, r int) []mention {
	t.Helper()
	differs := func(cand []mention) bool {
		return topkBytes(t, dom, cand, shards, k, r) != topkBytes(t, dom, cand, 1, k, r)
	}
	cur := append([]mention(nil), ms...)
	for pass := 0; pass < 4; pass++ {
		removed := false
		for i := 0; i < len(cur) && len(cur) > 1; i++ {
			cand := append(append([]mention(nil), cur[:i]...), cur[i+1:]...)
			if differs(cand) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return cur
}

func dumpMentions(ms []mention) string {
	var b strings.Builder
	for i, m := range ms {
		fmt.Fprintf(&b, "%3d. weight=%g truth=%q name=%q\n", i, m.weight, m.truth, m.name)
	}
	return b.String()
}

// TestEngineShardedDifferential sweeps both domains: for every seed and
// K, Engine answers with Shards in {2, 4, 8} must serialise to the
// exact bytes of the unsharded answer (timings and the collapse and
// prune eval counters zeroed), for TopK with R-best scoring and for the §7.1 rank query.
func TestEngineShardedDifferential(t *testing.T) {
	for _, dom := range []domainSpec{toyDomain(), genericDomain()} {
		trials := 3
		if dom.name == "generic" && testing.Short() {
			trials = 1
		}
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(42 + trial)))
			nEnt := 12 + rng.Intn(20)
			var ms []mention
			for e := 0; e < nEnt; e++ {
				for c := 1 + rng.Intn(5); c > 0; c-- {
					ms = append(ms, mention{
						weight: 1 + 0.001*rng.Float64(),
						truth:  fmt.Sprintf("E%03d", e),
						name:   dom.render(rng, e),
					})
				}
			}
			k := 1 + rng.Intn(6)
			r := 1 + rng.Intn(3)
			want := topkBytes(t, dom, ms, 1, k, r)
			wantRank := rankBytes(t, dom, ms, 1, k)
			for _, s := range []int{2, 4, 8} {
				if got := topkBytes(t, dom, ms, s, k, r); got != want {
					small := shrinkMentions(t, dom, ms, s, k, r)
					t.Fatalf("%s trial %d shards=%d k=%d r=%d: sharded TopK != unsharded\n"+
						"shrunk to %d records:\n%s\nsharded:   %s\nunsharded: %s",
						dom.name, trial, s, k, r, len(small), dumpMentions(small),
						topkBytes(t, dom, small, s, k, r), topkBytes(t, dom, small, 1, k, r))
				}
				if got := rankBytes(t, dom, ms, s, k); got != wantRank {
					t.Fatalf("%s trial %d shards=%d k=%d: sharded rank != unsharded\nsharded:   %s\nunsharded: %s",
						dom.name, trial, s, k, got, wantRank)
				}
			}
		}
	}
}
