package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Toy domain shared with the core tests: S = exact name equality,
// N = shared first letter.
func toyLevels() []predicate.Level {
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

func feed(t *testing.T, inc *Incremental, seed int64, entities, maxMentions int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for e := 0; e < entities; e++ {
		base := fmt.Sprintf("%c%03d", 'a'+r.Intn(5), e)
		nRend := 1 + r.Intn(3)
		mentions := 1 + r.Intn(maxMentions)
		for k := 0; k < mentions; k++ {
			inc.Add(1+0.001*r.Float64(), fmt.Sprintf("E%03d", e),
				fmt.Sprintf("%s.v%d", base, r.Intn(nRend)))
		}
	}
}

func TestNewRequiresLevels(t *testing.T) {
	if _, err := New("x", []string{"name"}, nil); err == nil {
		t.Fatal("empty levels should error")
	}
}

func TestIncrementalCollapseMatchesBatch(t *testing.T) {
	// For an exact-match sufficient predicate, the incremental partition
	// must equal the batch Collapse partition.
	levels := toyLevels()
	keys, keysCalls := levels[0].Sufficient.Keys, 0
	levels[0].Sufficient.Keys = func(r *records.Record) []string { keysCalls++; return keys(r) }
	inc, err := New("t", []string{"name"}, levels)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, inc, 3, 20, 10)
	// Add interns a record's sufficient keys once; nothing derives them
	// a second time.
	if keysCalls != inc.Len() {
		t.Fatalf("sufficient Keys called %d times for %d records", keysCalls, inc.Len())
	}
	incGroups := inc.Groups()

	d := inc.Dataset()
	batch, _ := core.Collapse(d, singletons(d), toyLevels()[0].Sufficient)
	if len(batch) != len(incGroups) {
		t.Fatalf("incremental %d groups, batch %d", len(incGroups), len(batch))
	}
	// Compare as partitions via member signatures.
	sig := func(gs []core.Group) map[string]bool {
		out := map[string]bool{}
		for _, g := range gs {
			members := append([]int{}, g.Members...)
			sortInts(members)
			out[fmt.Sprint(members)] = true
		}
		return out
	}
	bs := sig(batch)
	for s := range sig(incGroups) {
		if !bs[s] {
			t.Fatalf("incremental group %s missing from batch partition", s)
		}
	}
}

func TestIncrementalGroupsAreTruthPure(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 7, 15, 12)
	for _, g := range inc.Groups() {
		t0 := inc.Dataset().Recs[g.Members[0]].Truth
		for _, id := range g.Members {
			if inc.Dataset().Recs[id].Truth != t0 {
				t.Fatal("incremental collapse merged different entities")
			}
		}
	}
}

func TestStreamTopKMatchesBatchTopK(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 11, 18, 14)
	for _, k := range []int{1, 3} {
		streamRes, err := inc.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		batchRes, err := core.PrunedDedup(inc.Dataset(), toyLevels(), core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		// Both must keep every record of the true top-K entities; compare
		// survivor record sets.
		if got, want := coveredRecords(streamRes), coveredRecords(batchRes); len(got) != len(want) {
			t.Errorf("K=%d: stream keeps %d records, batch %d", k, len(got), len(want))
		} else {
			for id := range want {
				if !got[id] {
					t.Errorf("K=%d: stream lost record %d", k, id)
				}
			}
		}
	}
}

func TestStreamTopKSafety(t *testing.T) {
	// The incremental pipeline keeps every record of entities that can
	// reach the top-K, across growth.
	inc, _ := New("t", []string{"name"}, toyLevels())
	r := rand.New(rand.NewSource(23))
	for batch := 0; batch < 4; batch++ {
		for e := 0; e < 10; e++ {
			base := fmt.Sprintf("%c%03d", 'a'+r.Intn(5), e)
			for k := 0; k < 1+r.Intn(6); k++ {
				inc.Add(1+0.001*r.Float64(), fmt.Sprintf("E%03d", e),
					fmt.Sprintf("%s.v%d", base, r.Intn(2)))
			}
		}
		res, err := inc.TopK(2)
		if err != nil {
			t.Fatal(err)
		}
		surviving := coveredRecords(res)
		truth := core.TruthGroups(inc.Dataset())
		k := 2
		if k > len(truth) {
			k = len(truth)
		}
		kth := truth[k-1].Weight
		for _, g := range truth {
			if g.Weight < kth {
				continue
			}
			for _, id := range g.Members {
				if !surviving[id] {
					t.Fatalf("batch %d: top-entity record %d pruned", batch, id)
				}
			}
		}
	}
}

func TestEmptyStream(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	res, err := inc.TopK(3)
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty stream TopK: %v %v", res, err)
	}
	if inc.Len() != 0 || inc.Evals() != 0 {
		t.Error("fresh stream should be empty")
	}
}

func TestIncrementalEvalsStayLinearish(t *testing.T) {
	// Exact-match keys mean each insert evaluates against at most one
	// component per key: total evals must stay O(records).
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 31, 40, 20)
	if inc.Evals() > int64(2*inc.Len()) {
		t.Errorf("incremental evals %d exceed 2x records %d", inc.Evals(), inc.Len())
	}
}

func coveredRecords(res *core.Result) map[int]bool {
	out := map[int]bool{}
	for _, g := range res.Groups {
		for _, id := range g.Members {
			out[id] = true
		}
	}
	return out
}

func singletons(d *records.Dataset) []core.Group {
	groups := make([]core.Group, d.Len())
	for i, r := range d.Recs {
		groups[i] = core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
	}
	return groups
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
