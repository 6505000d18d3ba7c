package domains

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// boundCase is one domain on a seeded generated dataset. build returns a
// fresh domain (cold memo tables) every call.
type boundCase struct {
	name  string
	d     *records.Dataset
	build func() []predicate.Level
}

func boundCases() []boundCase { return boundCasesAt(1200) }

// boundCasesAt is boundCases at about n records per dataset (the
// Figure-7 sets at 5/12 and 3/4 of n).
func boundCasesAt(n int) []boundCase {
	cit := datagen.Citations(datagen.DefaultCitationConfig(n))
	stu := datagen.Students(datagen.DefaultStudentConfig(n))
	adr := datagen.Addresses(datagen.DefaultAddressConfig(n))
	res := datagen.Restaurants(datagen.RestaurantConfig{Seed: 4, NumRestaurants: n * 5 / 12, Noise: 0.8})
	aut := datagen.AuthorNames(5, n*3/4)
	get := datagen.Getoor(6, n*3/4)
	return []boundCase{
		{"citations", cit, func() []predicate.Level {
			return Citations(BuildDistinctCorpus(cit, datagen.FieldAuthor), CitationOptions{}).Levels
		}},
		{"students", stu, func() []predicate.Level { return Students(StudentOptions{}).Levels }},
		{"address", adr, func() []predicate.Level {
			return Addresses(BuildCorpus(adr, datagen.FieldOwner, datagen.FieldAddress)).Levels
		}},
		{"restaurant", res, func() []predicate.Level { return Restaurants(BuildCorpus(res, datagen.FieldOwner)).Levels }},
		{"authors", aut, func() []predicate.Level { return AuthorsOnly(BuildCorpus(aut, datagen.FieldAuthor)).Levels }},
		{"getoor", get, func() []predicate.Level { return GetoorDomain(BuildCorpus(get, datagen.FieldAuthor)).Levels }},
		{"generic", cit, func() []predicate.Level {
			levels, _ := Generic(datagen.FieldAuthor, 0.6)
			return levels
		}},
	}
}

// testPairs returns every distinct within-key candidate pair of p over
// d, plus extra seeded random pairs (almost all of them non-candidates).
func testPairs(d *records.Dataset, p predicate.P, extra int) [][2]int {
	pairs := make([][2]int, 0, extra)
	p.Block(d.Recs, nil).ForEachPair(func(i, j int) bool {
		pairs = append(pairs, [2]int{i, j})
		return true
	})
	rng := rand.New(rand.NewSource(17))
	for t := 0; t < extra; t++ {
		pairs = append(pairs, [2]int{rng.Intn(d.Len()), rng.Intn(d.Len())})
	}
	return pairs
}

// TestKeysOrderStable: for every predicate of every domain, Keys returns
// the same slice on every call — key order feeds key-id interning, and
// through it candidate order and eval counts, so a Keys that ranges a
// map makes those differ run to run.
func TestKeysOrderStable(t *testing.T) {
	for _, bc := range boundCases() {
		for li, level := range bc.build() {
			for _, p := range []predicate.P{level.Sufficient, level.Necessary} {
				for _, r := range bc.d.Recs {
					first := p.Keys(r)
					for call := 1; call < 8; call++ {
						if got := p.Keys(r); !reflect.DeepEqual(got, first) {
							t.Fatalf("%s level %d %s record %d: call %d returned %q, first call %q", bc.name, li+1, p.Name, r.ID, call, got, first)
						}
					}
				}
			}
		}
	}
}

// TestBoundMatchesEval pins the contract core relies on, for every
// predicate of every domain: Bound(recs)(i, j) == Eval(recs[i], recs[j])
// on every candidate pair and a sample of the rest. The bound side runs
// first, on a cold domain, from four goroutines that each bind their
// own evaluator and share none of the result slots — under -race that
// is the check that binding and bound evaluation are safe from worker
// pools.
func TestBoundMatchesEval(t *testing.T) {
	for _, bc := range boundCases() {
		for li, level := range bc.build() {
			for _, p := range []predicate.P{level.Sufficient, level.Necessary} {
				pairs := testPairs(bc.d, p, 20000)
				got := make([]bool, len(pairs))
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						eval := p.Bound(bc.d.Recs)
						for k := g; k < len(pairs); k += 4 {
							got[k] = eval(pairs[k][0], pairs[k][1])
						}
					}(g)
				}
				wg.Wait()
				hits := 0
				for k, pr := range pairs {
					want := p.Eval(bc.d.Recs[pr[0]], bc.d.Recs[pr[1]])
					if want {
						hits++
					}
					if got[k] != want {
						t.Fatalf("%s level %d %s: Bound(%d, %d) = %v, Eval = %v", bc.name, li+1, p.Name, pr[0], pr[1], got[k], want)
					}
				}
				if hits == 0 || hits == len(pairs) {
					t.Errorf("%s level %d %s: %d of %d pairs true — the comparison saw one verdict only", bc.name, li+1, p.Name, hits, len(pairs))
				}
			}
		}
	}
}

// uncountedNecessary lists the necessary predicates that declare no
// count filter (predicate.OfCounted), each with the reason their
// blocking keys bound a match's shared keys by no more than one.
var uncountedNecessary = map[string]string{
	"students/N1": "a match shares one name initial under the same class and school, hence one key — what every candidate shares",
}

// TestCountFormMatchesMatch is the count-filter contract, one table for
// every domain: each necessary predicate either declares a need above 1
// for some record — then, with the shared-key count taken from the real
// walk over the predicate's own blocking index, every candidate pair
// that matches shares at least the smaller of its two needs — or is
// named in uncountedNecessary.
func TestCountFormMatchesMatch(t *testing.T) {
	for _, bc := range boundCases() {
		for li, level := range bc.build() {
			n := level.Necessary
			id := bc.name + "/" + n.Name
			need := make([]int32, bc.d.Len())
			match := n.BoundNeed(bc.d.Recs, need)
			counted := slices.ContainsFunc(need, func(v int32) bool { return v > 1 })
			if reason, listed := uncountedNecessary[id]; listed == counted {
				t.Errorf("%s level %d: declares a count filter %v, allowlisted %v (%s)", id, li+1, counted, listed, reason)
			}
			if !counted {
				continue
			}
			ix := n.Block(bc.d.Recs, nil)
			shared := make([]int32, ix.Len())
			var cand []int32
			pairs, hits, filtered := 0, 0, 0
			for i := 0; i < ix.Len(); i++ {
				cand = cand[:0]
				for _, k := range ix.KeyIDs()[i] {
					for _, j := range ix.Bucket(k) {
						if int(j) == i {
							continue
						}
						if shared[j] == 0 {
							cand = append(cand, j)
						}
						shared[j]++
					}
				}
				for _, j32 := range cand {
					j := int(j32)
					pairs++
					least := min(need[i], need[j])
					if shared[j] < least {
						filtered++
					}
					if match(i, j) {
						hits++
						if shared[j] < least {
							t.Fatalf("%s level %d: records %d and %d match sharing %d keys, needs %d and %d", id, li+1, i, j, shared[j], need[i], need[j])
						}
					}
					shared[j] = 0
				}
			}
			t.Logf("%s level %d: %d ordered candidate pairs, %d below their need, %d matching", id, li+1, pairs, filtered, hits)
			if hits == 0 || filtered == 0 {
				t.Errorf("%s level %d: %d of %d pairs match, %d filtered — the check saw one side only", id, li+1, hits, pairs, filtered)
			}
		}
	}
}

// TestBoundEvalNoAllocs pins the hot bound evaluators at 0 allocs/op:
// the per-pair cost is two signature reads and a merge.
func TestBoundEvalNoAllocs(t *testing.T) {
	cases := boundCases()
	for _, tc := range []struct {
		bc    boundCase
		level int
	}{{cases[0], 0}, {cases[0], 1}, {cases[1], 1}} {
		n := tc.bc.build()[tc.level].Necessary
		pairs := testPairs(tc.bc.d, n, 1000)
		eval := n.Bound(tc.bc.d.Recs)
		hits := 0
		allocs := testing.AllocsPerRun(5, func() {
			for _, pr := range pairs {
				if eval(pr[0], pr[1]) {
					hits++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s %s bound evaluator: %v allocs per %d evals, want 0", tc.bc.name, n.Name, allocs, len(pairs))
		}
		if hits == 0 {
			t.Errorf("%s %s: no pair matched", tc.bc.name, n.Name)
		}
	}
}

// TestAddressPruneParallel runs the address domain through collapse,
// bound and prune on four workers. Its non-stop word sets used to live
// in a bare map written from inside Eval, which the race detector (and
// the runtime's concurrent-map check) caught on any multi-worker run;
// the answer must also equal the serial one on a fresh domain.
func TestAddressPruneParallel(t *testing.T) {
	d := datagen.Addresses(datagen.DefaultAddressConfig(3000))
	run := func(workers int) ([]core.Group, int64) {
		level := Addresses(BuildCorpus(d, datagen.FieldOwner, datagen.FieldAddress)).Levels[0]
		groups, _ := core.Collapse(d, core.SingletonGroups(d), level.Sufficient)
		core.SortGroupsByWeight(groups)
		_, m, _, _ := core.EstimateLowerBoundCtx(context.Background(), d, groups, level.Necessary, 10, workers)
		if m <= 0 {
			t.Fatalf("workers=%d: no lower bound established, prune would not run", workers)
		}
		alive, evals, _ := core.PruneCtx(context.Background(), d, groups, level.Necessary, m, 2, workers, nil)
		return alive, evals
	}
	serial, serialEvals := run(1)
	parallel, parallelEvals := run(4)
	if serialEvals == 0 {
		t.Fatal("prune evaluated no pair")
	}
	if serialEvals != parallelEvals || !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=4 differs from workers=1: %d groups / %d evals vs %d / %d",
			len(parallel), parallelEvals, len(serial), serialEvals)
	}
}
