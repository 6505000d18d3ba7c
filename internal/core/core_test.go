package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// The toy domain for core tests: each entity has a canonical first letter
// and several renderings that all keep that letter, so
//
//	S (exact rendering match)  is a valid sufficient predicate, and
//	N (shared first letter)    is a valid necessary predicate.
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

// genDataset builds a random dataset of numEntities entities. Every
// entity gets a distinct first letter bucket only by chance; renderings
// within an entity always share the first letter.
func genDataset(seed int64, numEntities, maxMentions int) *records.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := records.New("toy", "name")
	for e := 0; e < numEntities; e++ {
		base := fmt.Sprintf("%c%03d", 'a'+r.Intn(6), e)
		nRend := 1 + r.Intn(3)
		renderings := make([]string, nRend)
		for v := range renderings {
			renderings[v] = fmt.Sprintf("%s.v%d", base, v)
		}
		mentions := 1 + r.Intn(maxMentions)
		for k := 0; k < mentions; k++ {
			// Unique-ish weights avoid ties in TopK identity.
			w := 1 + r.Float64()*0.001
			d.Append(w, fmt.Sprintf("E%03d", e), renderings[r.Intn(nRend)])
		}
	}
	return d
}

func truthTopWeights(d *records.Dataset) []float64 {
	groups := TruthGroups(d)
	w := make([]float64, len(groups))
	for i, g := range groups {
		w[i] = g.Weight
	}
	return w
}

func TestSingletonGroups(t *testing.T) {
	d := genDataset(1, 3, 4)
	groups := singletonGroups(d)
	if len(groups) != d.Len() {
		t.Fatalf("%d groups for %d records", len(groups), d.Len())
	}
	for i, g := range groups {
		if g.Rep != i || len(g.Members) != 1 || g.Members[0] != i {
			t.Fatalf("bad singleton %+v", g)
		}
		if g.Weight != d.Recs[i].Weight {
			t.Fatalf("weight mismatch at %d", i)
		}
	}
}

func TestTruthGroupsPartition(t *testing.T) {
	d := genDataset(2, 5, 6)
	groups := TruthGroups(d)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, id := range g.Members {
			if seen[id] {
				t.Fatal("record appears in two truth groups")
			}
			seen[id] = true
		}
	}
	if len(seen) != d.Len() {
		t.Fatalf("truth groups cover %d of %d records", len(seen), d.Len())
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Weight > groups[i-1].Weight {
			t.Fatal("truth groups not sorted by weight")
		}
	}
}

func TestCollapsePurityAndClosure(t *testing.T) {
	d := genDataset(3, 8, 10)
	groups, evals := Collapse(d, singletonGroups(d), toyS())
	if evals <= 0 {
		t.Error("collapse should evaluate some pairs")
	}
	// Purity: all members of a collapsed group share the truth label.
	for _, g := range groups {
		t0 := d.Recs[g.Members[0]].Truth
		for _, id := range g.Members {
			if d.Recs[id].Truth != t0 {
				t.Fatal("collapse merged different entities")
			}
		}
	}
	// Closure: records with identical names must be in one group.
	byName := map[string]int{}
	groupOf := map[int]int{}
	for gi, g := range groups {
		for _, id := range g.Members {
			groupOf[id] = gi
		}
	}
	for _, r := range d.Recs {
		name := r.Field("name")
		if prev, ok := byName[name]; ok {
			if groupOf[prev] != groupOf[r.ID] {
				t.Fatalf("same-name records %d and %d not collapsed", prev, r.ID)
			}
		} else {
			byName[name] = r.ID
		}
	}
	// Weights preserved.
	var total float64
	for _, g := range groups {
		total += g.Weight
	}
	if diff := total - d.TotalWeight(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("collapse lost weight: %v vs %v", total, d.TotalWeight())
	}
}

func TestCollapseRepresentativeFromHeaviest(t *testing.T) {
	d := records.New("t", "name")
	d.Append(1, "E1", "x.a")
	d.Append(5, "E1", "x.a")
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	if len(groups) != 1 {
		t.Fatalf("expected one group, got %d", len(groups))
	}
}

func TestEstimateLowerBoundValidity(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		d := genDataset(seed, 4+int(seed%8), 12)
		groups, _ := Collapse(d, singletonGroups(d), toyS())
		sortGroupsByWeight(groups)
		truth := truthTopWeights(d)
		for _, k := range []int{1, 2, 3} {
			if k > len(truth) {
				continue
			}
			m, lower, _ := EstimateLowerBound(d, groups, toyN(), k)
			if lower < 0 {
				t.Fatalf("negative lower bound")
			}
			if m == 0 {
				continue // no guarantee found: vacuously safe
			}
			// Validity: the true K-th largest entity weight must be >= M.
			if truth[k-1] < lower-1e-9 {
				t.Fatalf("seed %d K=%d: lower bound %v exceeds true K-th weight %v",
					seed, k, lower, truth[k-1])
			}
		}
	}
}

func TestEstimateLowerBoundDistinctLetters(t *testing.T) {
	// Three entities with distinct first letters: after collapse, the
	// N-graph has no edges, so K distinct groups are certain at rank K.
	d := records.New("t", "name")
	for e, letter := range []string{"a", "b", "c"} {
		for k := 0; k < 3-e; k++ { // weights 3, 2, 1
			d.Append(1, fmt.Sprintf("E%d", e), letter+".v0")
		}
	}
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	m, lower, _ := EstimateLowerBound(d, groups, toyN(), 2)
	if m != 2 || lower != 2 {
		t.Errorf("m=%d M=%v, want m=2 M=2", m, lower)
	}
}

func TestPruneKeepsEverythingWhenMZero(t *testing.T) {
	d := genDataset(4, 5, 5)
	groups := singletonGroups(d)
	alive, evals := Prune(d, groups, toyN(), 0, 2)
	if len(alive) != len(groups) || evals != 0 {
		t.Error("M=0 must disable pruning")
	}
}

func TestPruneSafety(t *testing.T) {
	// Records whose entity can reach the TopK must never be pruned.
	for seed := int64(30); seed <= 50; seed++ {
		d := genDataset(seed, 10, 15)
		groups, _ := Collapse(d, singletonGroups(d), toyS())
		sortGroupsByWeight(groups)
		for _, k := range []int{1, 3} {
			m, lower, _ := EstimateLowerBound(d, groups, toyN(), k)
			_ = m
			alive, _ := Prune(d, groups, toyN(), lower, 2)
			surviving := map[int]bool{}
			for _, g := range alive {
				for _, id := range g.Members {
					surviving[id] = true
				}
			}
			truth := TruthGroups(d)
			if k > len(truth) {
				continue
			}
			kth := truth[k-1].Weight
			for _, g := range truth {
				if g.Weight < kth {
					continue // cannot displace the K-th group
				}
				for _, id := range g.Members {
					if !surviving[id] {
						t.Fatalf("seed %d K=%d: record %d of top entity (w=%v, kth=%v) pruned",
							seed, k, id, g.Weight, kth)
					}
				}
			}
		}
	}
}

func TestPrunePassesMonotone(t *testing.T) {
	// More passes can only prune more (never fewer) groups.
	for seed := int64(60); seed <= 70; seed++ {
		d := genDataset(seed, 12, 12)
		groups, _ := Collapse(d, singletonGroups(d), toyS())
		sortGroupsByWeight(groups)
		_, lower, _ := EstimateLowerBound(d, groups, toyN(), 2)
		if lower == 0 {
			continue
		}
		prev := -1
		for passes := 1; passes <= 3; passes++ {
			alive, _ := Prune(d, groups, toyN(), lower, passes)
			if prev >= 0 && len(alive) > prev {
				t.Fatalf("seed %d: pass %d kept more groups (%d) than pass %d (%d)",
					seed, passes, len(alive), passes-1, prev)
			}
			prev = len(alive)
		}
	}
}

func TestPrunedDedupTopKSafety(t *testing.T) {
	for seed := int64(100); seed <= 120; seed++ {
		d := genDataset(seed, 15, 20)
		for _, k := range []int{1, 2, 5} {
			res, err := PrunedDedup(d, toyLevels(), Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			surviving := map[int]bool{}
			for _, g := range res.Groups {
				for _, id := range g.Members {
					surviving[id] = true
				}
			}
			truth := TruthGroups(d)
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
						t.Fatalf("seed %d K=%d: top-entity record %d pruned", seed, k, id)
					}
				}
			}
			// Stats sanity.
			if len(res.Stats) == 0 {
				t.Fatal("missing stats")
			}
			st := res.Stats[0]
			if st.NGroups < st.Survivors {
				t.Error("survivors exceed groups")
			}
			if st.SurvivorsPct > st.NGroupsPct+1e-9 {
				t.Error("survivor pct exceeds group pct")
			}
		}
	}
}

func TestPrunedDedupErrors(t *testing.T) {
	d := genDataset(1, 3, 3)
	if _, err := PrunedDedup(d, toyLevels(), Options{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := PrunedDedup(d, nil, Options{K: 1}); err == nil {
		t.Error("no levels should error")
	}
	empty := records.New("e", "name")
	// Exactly one of K >= 1 and Threshold > 0, on any dataset.
	for _, bad := range []Options{{}, {K: 0, Threshold: -1}, {K: 1, Threshold: 1}} {
		for _, dd := range []*records.Dataset{d, empty} {
			if _, err := PrunedDedup(dd, toyLevels(), bad); err == nil {
				t.Errorf("%+v on %d records should error", bad, dd.Len())
			}
		}
	}
	res, err := PrunedDedup(empty, toyLevels(), Options{K: 1})
	if err != nil || len(res.Groups) != 0 {
		t.Errorf("empty dataset should give empty result: %v %v", res, err)
	}
}

func TestPrunedDedupEarlyExit(t *testing.T) {
	// Two entities with distinct letters, K=2: after collapse+prune
	// exactly 2 groups remain and the algorithm reports an exact answer.
	d := records.New("t", "name")
	d.Append(1, "E1", "a.v0")
	d.Append(1, "E1", "a.v0")
	d.Append(1, "E2", "b.v0")
	res, err := PrunedDedup(d, toyLevels(), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactlyK {
		t.Errorf("expected ExactlyK, got %+v", res)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(res.Groups))
	}
	if res.Groups[0].Weight != 2 || res.Groups[1].Weight != 1 {
		t.Errorf("group weights wrong: %+v", res.Groups)
	}
}

func TestMultiLevelTightens(t *testing.T) {
	// Level 2 with a tighter necessary predicate (first two chars) should
	// not prune less than level 1 alone.
	tightN := predicate.P{
		Name: "N2",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 1 && len(nb) > 1 && na[:2] == nb[:2]
		},
		Keys: func(r *records.Record) []string {
			n := r.Field("name")
			if len(n) < 2 {
				return nil
			}
			return []string{"n2:" + n[:2]}
		},
	}
	levels := []predicate.Level{
		{Sufficient: toyS(), Necessary: toyN()},
		{Sufficient: toyS(), Necessary: tightN},
	}
	d := genDataset(7, 20, 15)
	res1, err := PrunedDedup(d, toyLevels(), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := PrunedDedup(d, levels, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Groups) > len(res1.Groups) {
		t.Errorf("second level should tighten: %d vs %d survivors",
			len(res2.Groups), len(res1.Groups))
	}
	if len(res2.Stats) != 2 && !res2.ExactlyK {
		t.Errorf("expected 2 levels of stats, got %d", len(res2.Stats))
	}
}

func TestSortGroupsDeterministic(t *testing.T) {
	groups := []Group{{Rep: 3, Weight: 1}, {Rep: 1, Weight: 1}, {Rep: 2, Weight: 5}}
	sortGroupsByWeight(groups)
	reps := []int{groups[0].Rep, groups[1].Rep, groups[2].Rep}
	if !sort.IntsAreSorted(reps[1:]) || reps[0] != 2 {
		t.Errorf("sort order wrong: %v", reps)
	}
}
