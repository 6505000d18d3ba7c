package rankquery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Same toy domain as the core tests: S = exact name match, N = shared
// first letter; entity renderings keep their first letter.
func toyS() predicate.P {
	return predicate.P{
		Name: "S",
		Eval: func(a, b *records.Record) bool {
			return a.Field("name") != "" && a.Field("name") == b.Field("name")
		},
		Keys: func(r *records.Record) []string { return []string{"s:" + r.Field("name")} },
	}
}

func toyN() predicate.P {
	return predicate.P{
		Name: "N",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *records.Record) []string {
			n := r.Field("name")
			if n == "" {
				return nil
			}
			return []string{"n:" + n[:1]}
		},
	}
}

func toyLevels() []predicate.Level {
	return []predicate.Level{{Sufficient: toyS(), Necessary: toyN()}}
}

func genDataset(seed int64, numEntities, maxMentions int) *records.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := records.New("toy", "name")
	for e := 0; e < numEntities; e++ {
		base := fmt.Sprintf("%c%03d", 'a'+r.Intn(6), e)
		nRend := 1 + r.Intn(3)
		mentions := 1 + r.Intn(maxMentions)
		for k := 0; k < mentions; k++ {
			d.Append(1+r.Float64()*0.001, fmt.Sprintf("E%03d", e),
				fmt.Sprintf("%s.v%d", base, r.Intn(nRend)))
		}
	}
	return d
}

// topKRank is the batch §7.1 TopK rank query: one pruning, finished by
// FromPruned.
func topKRank(d *records.Dataset, levels []predicate.Level, opts core.Options) (*RankResult, error) {
	res, err := core.PrunedDedup(d, levels, opts)
	if err != nil {
		return nil, err
	}
	return FromPruned(d, levels, res, opts.K), nil
}

func TestTopKRankBasics(t *testing.T) {
	d := genDataset(1, 12, 10)
	rr, err := topKRank(d, toyLevels(), core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Entries) == 0 {
		t.Fatal("no entries")
	}
	for i, e := range rr.Entries {
		if e.Upper < e.Group.Weight {
			t.Errorf("entry %d: upper bound %v below weight %v", i, e.Upper, e.Group.Weight)
		}
		if i > 0 && rr.Entries[i-1].Group.Weight < e.Group.Weight {
			t.Error("entries not sorted by weight")
		}
	}
}

func TestTopKRankDistinctLettersSettled(t *testing.T) {
	// Entities with distinct letters: no N edges between groups, so every
	// group is resolved and the ranking settles.
	d := records.New("t", "name")
	letters := []string{"a", "b", "c", "d"}
	for e, letter := range letters {
		for k := 0; k < 8-2*e; k++ { // weights 8, 6, 4, 2
			d.Append(1, fmt.Sprintf("E%d", e), letter+".v0")
		}
	}
	rr, err := topKRank(d, toyLevels(), core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Settled {
		t.Errorf("ranking should settle: %+v", rr.Entries)
	}
	if len(rr.Entries) < 2 || rr.Entries[0].Group.Weight != 8 || rr.Entries[1].Group.Weight != 6 {
		t.Errorf("top entries wrong: %+v", rr.Entries)
	}
	for _, e := range rr.Entries {
		if e.Upper != e.Group.Weight {
			t.Errorf("isolated group upper bound should equal weight: %+v", e)
		}
		if !e.Resolved {
			t.Errorf("isolated group should be resolved: %+v", e)
		}
	}
}

func TestTopKRankAmbiguousNotSettled(t *testing.T) {
	// Two same-letter groups that could merge: their relative rank vs a
	// distinct group stays ambiguous.
	d := records.New("t", "name")
	for k := 0; k < 5; k++ {
		d.Append(1, "E0", "a.v0")
	}
	for k := 0; k < 4; k++ {
		d.Append(1, "E1", "a.v1") // could merge with E0 under N
	}
	for k := 0; k < 6; k++ {
		d.Append(1, "E2", "b.v0")
	}
	rr, err := topKRank(d, toyLevels(), core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Settled {
		t.Errorf("ambiguous instance should not settle: %+v", rr.Entries)
	}
}

func TestThresholdedRankBasics(t *testing.T) {
	d := genDataset(2, 10, 12)
	rr, err := ThresholdedRank(context.Background(), d, toyLevels(), core.Options{Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Every truth entity with weight clearly above the threshold must
	// still be represented among the entries.
	truth := core.TruthGroups(d)
	kept := map[int]bool{}
	for _, e := range rr.Entries {
		for _, id := range e.Group.Members {
			kept[id] = true
		}
	}
	for _, g := range truth {
		if g.Weight >= 5 {
			for _, id := range g.Members {
				if !kept[id] {
					t.Fatalf("entity with weight %v lost record %d", g.Weight, id)
				}
			}
		}
	}
}

func TestThresholdedRankSettledCase(t *testing.T) {
	d := records.New("t", "name")
	for k := 0; k < 10; k++ {
		d.Append(1, "E0", "a.v0")
	}
	for k := 0; k < 2; k++ {
		d.Append(1, "E1", "b.v0")
	}
	rr, err := ThresholdedRank(context.Background(), d, toyLevels(), core.Options{Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Settled {
		t.Errorf("clear-cut threshold query should settle: %+v", rr.Entries)
	}
	if len(rr.Entries) != 1 || rr.Entries[0].Group.Weight != 10 {
		t.Errorf("entries = %+v, want single weight-10 group", rr.Entries)
	}
}

func TestThresholdedRankRejectsBadThreshold(t *testing.T) {
	d := genDataset(3, 4, 4)
	if _, err := ThresholdedRank(context.Background(), d, toyLevels(), core.Options{Threshold: 0}); err == nil {
		t.Error("threshold 0 should error")
	}
	if _, err := ThresholdedRank(context.Background(), d, toyLevels(), core.Options{Threshold: -2}); err == nil {
		t.Error("negative threshold should error")
	}
}

func TestTopKRankExtraPruning(t *testing.T) {
	// The rank query may prune more than the plain TopK query; at minimum
	// it must never keep more entries than TopK kept groups.
	for seed := int64(10); seed <= 20; seed++ {
		d := genDataset(seed, 15, 12)
		opts := core.Options{K: 2}
		pd, err := core.PrunedDedup(d, toyLevels(), opts)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := topKRank(d, toyLevels(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.Entries) > len(pd.Groups) {
			t.Errorf("seed %d: rank query kept %d > TopK %d",
				seed, len(rr.Entries), len(pd.Groups))
		}
		if rr.ExtraPruned != len(pd.Groups)-len(rr.Entries) {
			// ExtraPruned counts groups dropped by resolveEntries relative
			// to its input (the TopK survivors).
			t.Errorf("seed %d: ExtraPruned %d inconsistent (%d -> %d)",
				seed, rr.ExtraPruned, len(pd.Groups), len(rr.Entries))
		}
	}
}

func TestResolveEntriesEmpty(t *testing.T) {
	rr := resolveEntries(records.New("t", "name"), nil, toyN(), 1)
	if len(rr.Entries) != 0 {
		t.Error("empty input should give empty result")
	}
}

// resolveReference is resolve as a double loop: every pair of groups is
// tested for a ranking conflict, neighbours through a per-group set.
func resolveReference(groups []core.Group, adj [][]int, m float64) *RankResult {
	ng := len(groups)
	rr := &RankResult{}
	u := make([]float64, ng)
	for i := range groups {
		sort.Ints(adj[i])
		u[i] = groups[i].Weight
		for _, j := range adj[i] {
			u[i] += groups[j].Weight
		}
	}
	resolved := make([]bool, ng)
	for j := range groups {
		ok := true
		isNbr := make(map[int]bool, len(adj[j]))
		for _, g := range adj[j] {
			isNbr[g] = true
		}
		for g := 0; g < ng && ok; g++ {
			if g == j {
				continue
			}
			if isNbr[g] {
				if u[g]-groups[j].Weight >= m {
					ok = false
				}
			} else if !(groups[j].Weight >= u[g] || u[j] <= groups[g].Weight) {
				ok = false
			}
		}
		resolved[j] = ok
	}
	keep := make([]bool, ng)
	for g := range groups {
		if groups[g].Weight >= m {
			keep[g] = true
			continue
		}
		if !resolved[g] {
			keep[g] = u[g] >= m
		}
		for _, i := range adj[g] {
			if !resolved[i] && u[i] >= m {
				keep[g] = true
				break
			}
		}
	}
	for i := range groups {
		if !keep[i] {
			rr.ExtraPruned++
			continue
		}
		rr.Entries = append(rr.Entries, Entry{Group: groups[i], Upper: u[i], Resolved: resolved[i]})
	}
	slices.SortFunc(rr.Entries, func(a, b Entry) int { return core.CompareGroups(a.Group, b.Group) })
	return rr
}

// TestResolveSweepMatchesReference: over random weights and adjacency —
// weights drawn from a few small integers so equal weights, w == u
// groups and w[j] == u[g] boundaries are common, plus isolated groups
// and zero weights — the sorted sweep gives the double loop's entries,
// upper bounds, resolved flags and ExtraPruned.
func TestResolveSweepMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	resolvedSeen, prunedSeen := 0, 0
	for trial := 0; trial < 2000; trial++ {
		ng := 1 + r.Intn(24)
		groups := make([]core.Group, ng)
		for i := range groups {
			w := float64(r.Intn(5))
			if trial%3 == 0 {
				w += r.Float64()
			}
			groups[i] = core.Group{Rep: i, Members: []int{i}, Weight: w}
		}
		core.SortGroupsByWeight(groups)
		density := r.Float64() * 0.4
		adj := make([][]int, ng)
		for i := 0; i < ng; i++ {
			for j := i + 1; j < ng; j++ {
				if r.Float64() < density {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		m := float64(r.Intn(8))
		if trial%2 == 0 {
			m += 0.5
		}
		want := resolveReference(groups, cloneAdj(adj), m)
		got := resolve(groups, cloneAdj(adj), m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (m=%g, groups %+v, adj %v):\nsweep     %+v\nreference %+v", trial, m, groups, adj, got, want)
		}
		for _, e := range want.Entries {
			if e.Resolved {
				resolvedSeen++
			}
		}
		prunedSeen += want.ExtraPruned
	}
	if resolvedSeen == 0 || prunedSeen == 0 {
		t.Errorf("%d resolved entries, %d extra-pruned groups: the trials exercised too little", resolvedSeen, prunedSeen)
	}
}

func cloneAdj(adj [][]int) [][]int {
	out := make([][]int, len(adj))
	for i, a := range adj {
		out[i] = slices.Clone(a)
	}
	return out
}
