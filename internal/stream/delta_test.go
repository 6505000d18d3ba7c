package stream

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// scratchGroups recomputes the level-1 collapse from scratch: one sweep
// in record-id order that groups records by class (the sufficient
// closure, computed independently of the accumulator by the caller) —
// the reference the delta rebuild must match byte for byte.
func scratchGroups(inc *Incremental, class func(*records.Record) string) []core.Group {
	byClass := make(map[string]int)
	var groups []core.Group
	for _, r := range inc.data.Recs {
		if gi, ok := byClass[class(r)]; ok {
			g := &groups[gi]
			g.Members = append(g.Members, r.ID)
			g.Weight += r.Weight
			if r.Weight > inc.data.Recs[g.Rep].Weight {
				g.Rep = r.ID
			}
		} else {
			byClass[class(r)] = len(groups)
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

func byName(r *records.Record) string { return r.Field("name") }

// TestStreamGroupsMatchScratch pins the delta rebuild: after every
// random ingest batch, Groups (which re-materialises only the closures
// Add changed) must equal the from-scratch sweep exactly — member order,
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
			want := scratchGroups(inc, byName)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d: delta groups diverge from scratch\n got=%v\nwant=%v", trial, batch, got, want)
			}
		}
	}
}

// bridgeLevels is a domain whose sufficient predicate is "the two names
// share a token": a record carrying tokens of two existing closures joins
// them, so — unlike toyLevels, where a record joins at most one group —
// Add merges closures that both already hold members. Keyed on the
// tokens themselves, every key bucket is a clique of S.
func bridgeLevels() []predicate.Level {
	share := predicate.P{
		Name: "share-token",
		Eval: func(a, b *records.Record) bool {
			for _, ta := range strings.Fields(a.Field("name")) {
				for _, tb := range strings.Fields(b.Field("name")) {
					if ta == tb {
						return true
					}
				}
			}
			return false
		},
		Keys: func(r *records.Record) []string { return strings.Fields(r.Field("name")) },
	}
	return []predicate.Level{{Sufficient: share, Necessary: share}}
}

// initialLevels is bridgeLevels keyed on each token's first letter: a
// key bucket holds records that S does not all match, so a closure
// kernel that evaluates a new record against one member per component
// it meets, rather than every candidate, misses a match.
func initialLevels() []predicate.Level {
	levels := bridgeLevels()
	levels[0].Sufficient.Keys = func(r *records.Record) []string {
		var keys []string
		for _, tok := range strings.Fields(r.Field("name")) {
			keys = append(keys, tok[:1])
		}
		return keys
	}
	return levels
}

// bridgeClass returns the from-scratch sufficient closure of the bridge
// domain: connected components of the shares-a-token graph, by a batch
// union-find over every pair.
func bridgeClass(inc *Incremental) func(*records.Record) string {
	recs, eval := inc.data.Recs, bridgeLevels()[0].Sufficient.Eval
	uf := dsu.New(len(recs))
	for i := range recs {
		for j := 0; j < i; j++ {
			if eval(recs[i], recs[j]) {
				uf.Union(i, j)
			}
		}
	}
	return func(r *records.Record) string { return strconv.Itoa(uf.Find(r.ID)) }
}

// TestGroupsMatchesScratch grows the accumulator in random batches over
// the bridge domain — most records carry one token, some carry two and
// join whatever closures hold them — and checks the delta-rebuilt
// collapse equals the from-scratch sweep after every batch, including
// Members order, Weight bit patterns, and Rep choice. The initials
// domain runs the same feed with key buckets that are not cliques of S.
func TestGroupsMatchesScratch(t *testing.T) {
	for name, levels := range map[string][]predicate.Level{"bridge": bridgeLevels(), "initials": initialLevels()} {
		merges := 0
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			inc, err := New(name, []string{"name"}, levels)
			if err != nil {
				t.Fatal(err)
			}
			tokens := 8 + rng.Intn(40)
			token := func() string { return fmt.Sprintf("%c%02d", 'a'+rng.Intn(5), rng.Intn(tokens)) }
			for batch := 0; batch < 12; batch++ {
				before := len(inc.Groups())
				added := 1 + rng.Intn(9)
				for i := 0; i < added; i++ {
					name := token()
					if rng.Intn(4) == 0 {
						name += " " + token()
					}
					inc.Add(float64(rng.Intn(20))+rng.Float64(), "", name)
				}
				got := inc.Groups()
				want := scratchGroups(inc, bridgeClass(inc))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d batch %d: delta groups diverge from scratch\n got=%v\nwant=%v", name, trial, batch, got, want)
				}
				if len(got) < before {
					merges++ // fewer groups after ingest: existing closures were joined
				}
			}
		}
		if merges == 0 {
			t.Fatalf("%s: no batch merged existing closures; the bridge feed lost its point", name)
		}
	}
}

// deepCopyGroups copies the groups and their Members arrays, so a later
// comparison notices a write into the originals.
func deepCopyGroups(gs []core.Group) []core.Group {
	out := make([]core.Group, len(gs))
	for i, g := range gs {
		out[i] = core.Group{Rep: g.Rep, Members: slices.Clone(g.Members), Weight: g.Weight}
	}
	return out
}

// TestGroupsReusesCleanClosures checks the delta on the citations shape
// — every record shares one necessary key, so a canopy over N keys is a
// single component: a Groups call with no ingest in between rebuilds
// nothing and hands back the same Members backing arrays, and one record
// joining one group rebuilds exactly that group.
func TestGroupsReusesCleanClosures(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	for i := 0; i < 40; i++ {
		inc.Add(float64(i%7)+1, "", fmt.Sprintf("a%03d", i%12)) // all share N key "n:a"
	}
	members := func(gs []core.Group) map[int]*int {
		out := make(map[int]*int)
		for _, g := range gs {
			out[g.Members[0]] = &g.Members[0]
		}
		return out
	}
	first := inc.Groups()
	counts := obs.NewCollector()
	inc.SetMetrics(counts)
	again := inc.Groups()
	if !reflect.DeepEqual(first, again) || !reflect.DeepEqual(members(first), members(again)) {
		t.Fatal("a no-op Groups did not hand back the same groups over the same Members arrays")
	}
	rebuilt := func() int64 { return counts.CounterValue("inc.delta.rebuilt_groups") }
	reused := func() int64 { return counts.CounterValue("inc.delta.reused_groups") }
	if rebuilt() != 0 || reused() != 12 {
		t.Fatalf("no-op Groups: rebuilt %d reused %d, want 0 and 12", rebuilt(), reused())
	}

	held := deepCopyGroups(first)
	joined := inc.Add(2.5, "", "a003")
	counts.Reset()
	after := inc.Groups()
	if rebuilt() != 1 || reused() != 11 {
		t.Fatalf("one record into one group: rebuilt %d reused %d, want 1 and 11", rebuilt(), reused())
	}
	was := members(first)
	for _, g := range after {
		touched := g.Members[len(g.Members)-1] == joined
		if same := was[g.Members[0]] == &g.Members[0]; same == touched {
			t.Fatalf("group of record %d: touched=%v but Members array reused=%v", g.Members[0], touched, same)
		}
	}
	if !reflect.DeepEqual(first, held) {
		t.Fatal("the rebuild wrote into groups handed out earlier")
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

// TestIncrementalGridMatchesScratch is the Workers acceptance grid: at
// every worker count, a snapshot query seeded with the maintained
// collapse must equal the from-scratch batch pipeline — groups, weights,
// member order, MRank, LowerBound and every eval count; only phase times
// are erased.
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
		snap := inc.Snapshot()
		for _, workers := range []int{1, 2, 4} {
			for _, k := range []int{1, 3, 6} {
				got, err := snap.TopKCtx(context.Background(), k, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.PrunedDedup(snap.Dataset(), toyLevels(), core.Options{K: k, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				stripTimes(got)
				stripTimes(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d workers=%d k=%d: incremental diverges from scratch\n got=%+v\nwant=%+v",
						round, workers, k, got, want)
				}
			}
		}
	}
}
