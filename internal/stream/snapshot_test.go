package stream

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
)

// TestSnapshotIsImmutableUnderGrowth holds a snapshot while ingest keeps
// landing in — and, on the bridge domain, merging — the very groups it
// contains, with new snapshots published in between. A reader goroutine
// keeps walking the held snapshot meanwhile, so under -race a rebuild
// that wrote into a shared Members array would be reported as well as
// seen in the DeepEqual. A Heaviest window — a view of the snapshot's own
// list, not a copy — is held and walked alongside.
func TestSnapshotIsImmutableUnderGrowth(t *testing.T) {
	cases := []struct {
		name   string
		levels []predicate.Level
		grow   func(inc *Incremental, seed int64)
	}{
		// The same seed feeds the same names again: into the held groups.
		{"toy", toyLevels(), func(inc *Incremental, seed int64) { feed(t, inc, seed, 15, 8) }},
		// Thirty one-token groups, then two-token records joining them.
		{"bridge", bridgeLevels(), func(inc *Incremental, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30 && inc.Len() < 30; i++ {
				inc.Add(float64(1+i%4), "", fmt.Sprintf("t%02d", i))
			}
			for i := 0; i < 20; i++ {
				inc.Add(1+rng.Float64(), "", fmt.Sprintf("t%02d t%02d", rng.Intn(30), rng.Intn(30)))
			}
		}},
	}
	for _, tc := range cases {
		name := tc.name
		inc, _ := New("t", []string{"name"}, tc.levels)
		grow := func(seed int64) { tc.grow(inc, seed) }
		grow(5)
		snap := inc.Snapshot()
		wantLen := snap.Len()
		wantGroups := deepCopyGroups(snap.Groups())
		heaviest := snap.Heaviest(5)
		if len(heaviest) != 5 {
			t.Fatalf("%s: Heaviest(5) returned %d groups", name, len(heaviest))
		}
		before, err := snap.TopK(3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}

		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, groups := range [][]core.Group{snap.Groups(), heaviest} {
					for _, g := range groups {
						for _, m := range g.Members {
							_ = snap.Dataset().Recs[m].Weight
						}
					}
				}
			}
		}()
		// Keep growing the accumulator and publishing; the held snapshot
		// must not move.
		for round := int64(0); round < 4; round++ {
			grow(5 + round%2)
			if len(inc.Snapshot().Groups()) == 0 {
				t.Fatal("expected groups")
			}
		}
		close(stop)
		<-done

		if name == "bridge" && len(inc.Groups()) >= len(wantGroups) {
			t.Fatalf("bridge growth merged nothing: %d groups held, %d now", len(wantGroups), len(inc.Groups()))
		}
		if snap.Len() != wantLen {
			t.Fatalf("%s: snapshot length moved: %d -> %d", name, wantLen, snap.Len())
		}
		if got := snap.Groups(); !reflect.DeepEqual(got, wantGroups) {
			t.Fatalf("%s: snapshot groups moved under ingest\n got=%v\nwant=%v", name, got, wantGroups)
		}
		if !reflect.DeepEqual(heaviest, wantGroups[:5]) {
			t.Fatalf("%s: held Heaviest window moved under ingest\n got=%v\nwant=%v", name, heaviest, wantGroups[:5])
		}
		after, err := snap.TopKCtx(context.Background(), 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before.Groups, after.Groups) {
			t.Fatalf("%s: snapshot TopK changed after accumulator growth", name)
		}
	}
}

func TestSnapshotTopKMatchesIncrementalTopK(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 9, 20, 12)
	snap := inc.Snapshot()
	for _, k := range []int{1, 2, 5} {
		want, err := inc.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.TopK(k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups) {
			t.Fatalf("K=%d: snapshot TopK diverges from incremental TopK", k)
		}
	}
}

func TestSnapshotConcurrentQueries(t *testing.T) {
	// Many goroutines querying one snapshot must neither race (the -race
	// run of ci.sh enforces this) nor observe different answers.
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 13, 30, 10)
	snap := inc.Snapshot()
	want, err := snap.TopK(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := snap.TopK(3, 2, nil)
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups) {
					errs[g] = "answer diverged across concurrent queries"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	snap := inc.Snapshot()
	res, err := snap.TopK(4, 1, nil)
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty snapshot TopK: %v %v", res, err)
	}
	if len(snap.Heaviest(4)) != 0 {
		t.Fatal("empty snapshot has heaviest groups")
	}
	if snap.Len() != 0 || snap.Evals() != 0 || snap.Taken().IsZero() {
		t.Fatal("empty snapshot metadata wrong")
	}
}

func TestSnapshotGroupsCopyIsIndependent(t *testing.T) {
	inc, _ := New("t", []string{"name"}, toyLevels())
	feed(t, inc, 17, 10, 6)
	snap := inc.Snapshot()
	a, b := snap.Groups(), snap.Groups()
	if len(a) == 0 {
		t.Fatal("expected groups")
	}
	a[0] = core.Group{Rep: -1, Weight: -1}
	if b[0].Rep == -1 {
		t.Fatal("Groups() copies share the top-level slice")
	}
}
