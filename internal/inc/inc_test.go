package inc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/intern"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Toy domain shared with the stream/server tests: S = exact name match
// (transitive, so the maintained closure equals the batch closure),
// N = shared first letter. Pure functions, safe for any concurrency.
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

// harness drives a State the way stream.Incremental does: appends a
// record, maintains the exact-match sufficient closure in its own DSU,
// and hands the record to Observe.
type harness struct {
	data *records.Dataset
	uf   *dsu.DSU
	st   *State
	by   map[string]int // name -> first record id (exact-match closure)
	tab  *intern.Table  // the harness's own sufficient-key ids, as stream.Add's
}

func newHarness() *harness {
	d := records.New("inc-test", "name")
	return &harness{data: d, uf: dsu.NewGrowable(), st: NewState(d, toyLevels()), by: make(map[string]int), tab: intern.New()}
}

func (h *harness) add(weight float64, name string) {
	rec := h.data.Append(weight, name, name)
	h.uf.Add()
	if first, ok := h.by[name]; ok {
		h.uf.Union(rec.ID, first)
	} else {
		h.by[name] = rec.ID
	}
	h.st.Observe(rec, toyLevels()[0].Sufficient.KeyIDs(h.tab, rec, nil))
}

// scratchGroups is the reference from-scratch sweep (the pre-incremental
// stream.Incremental.Groups implementation, verbatim semantics).
func (h *harness) scratchGroups() []core.Group {
	byRoot := make(map[int]*core.Group)
	order := make([]int, 0)
	for _, r := range h.data.Recs {
		root := h.uf.Find(r.ID)
		g, ok := byRoot[root]
		if !ok {
			byRoot[root] = &core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
			order = append(order, root)
			continue
		}
		g.Members = append(g.Members, r.ID)
		g.Weight += r.Weight
		if r.Weight > h.data.Recs[g.Rep].Weight {
			g.Rep = r.ID
		}
	}
	groups := make([]core.Group, 0, len(byRoot))
	for _, root := range order {
		groups = append(groups, *byRoot[root])
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Weight != groups[j].Weight {
			return groups[i].Weight > groups[j].Weight
		}
		return groups[i].Rep < groups[j].Rep
	})
	return groups
}

func randomName(rng *rand.Rand, entities int) string {
	e := rng.Intn(entities)
	return fmt.Sprintf("%c%03d", 'a'+e%7, e)
}

// TestGroupsMatchesScratch grows the state in random batches and checks
// the delta-rebuilt collapse equals the from-scratch sweep after every
// batch — including Members order, Weight bit patterns, and Rep choice.
func TestGroupsMatchesScratch(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		h := newHarness()
		entities := 5 + rng.Intn(40)
		for batch := 0; batch < 12; batch++ {
			for i := 0; i < 1+rng.Intn(9); i++ {
				h.add(float64(rng.Intn(20))+rng.Float64(), randomName(rng, entities))
			}
			got := h.st.Groups(h.uf.Find)
			want := h.scratchGroups()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d: incremental groups diverge\n got=%v\nwant=%v", trial, batch, got, want)
			}
		}
	}
}

// TestGroupsReusesCleanComponents checks that a second Groups call with
// no intervening ingest rebuilds nothing, and that adding one record
// dirties only the touched component.
func TestGroupsReusesCleanComponents(t *testing.T) {
	h := newHarness()
	for i := 0; i < 30; i++ {
		h.add(float64(i%7)+1, fmt.Sprintf("%c%03d", 'a'+i%5, i%10))
	}
	first := h.st.Groups(h.uf.Find)
	again := h.st.Groups(h.uf.Find)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeat Groups changed the result")
	}
	comps := h.st.Components()
	if comps < 2 {
		t.Fatalf("want >= 2 canopy components for the dirty test, got %d", comps)
	}
	// A clean component's groups slice must be reused verbatim (same
	// backing array), proving no rebuild happened.
	var counts fakeSink
	h.st.SetMetrics(&counts)
	h.st.Groups(h.uf.Find)
	if counts.counts["inc.delta.dirty_components"] != 0 {
		t.Fatalf("no-op Groups dirtied %d components", counts.counts["inc.delta.dirty_components"])
	}
	if counts.counts["inc.delta.clean_components"] != int64(comps) {
		t.Fatalf("clean_components = %d, want %d", counts.counts["inc.delta.clean_components"], comps)
	}
	h.add(2.5, "a000") // touches exactly the 'a' first-letter component
	counts.reset()
	h.st.Groups(h.uf.Find)
	if got := counts.counts["inc.delta.dirty_components"]; got != 1 {
		t.Fatalf("one-record ingest dirtied %d components, want 1", got)
	}
}

// fakeSink records counter totals by name.
type fakeSink struct{ counts map[string]int64 }

func (f *fakeSink) Count(name string, delta int64) {
	if f.counts == nil {
		f.counts = make(map[string]int64)
	}
	f.counts[name] += delta
}
func (f *fakeSink) Gauge(string, float64)   {}
func (f *fakeSink) Observe(string, float64) {}
func (f *fakeSink) reset()                  { f.counts = nil }
