package intern

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestInternBasic(t *testing.T) {
	tab := New()
	if got := tab.Len(); got != 0 {
		t.Fatalf("empty table Len = %d", got)
	}
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("first-seen ids = %d, %d; want 0, 1", a, b)
	}
	if again := tab.Intern("alpha"); again != a {
		t.Fatalf("re-intern changed id: %d != %d", again, a)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if tab.Key(a) != "alpha" || tab.Key(b) != "beta" {
		t.Fatalf("Key inversion broken: %q, %q", tab.Key(a), tab.Key(b))
	}
	if id, ok := tab.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d, %v", id, ok)
	}
	if _, ok := tab.Lookup("gamma"); ok {
		t.Fatal("Lookup of unseen key reported ok")
	}
}

func TestInternAllOrder(t *testing.T) {
	tab := New()
	ids := tab.InternAll(nil, []string{"x", "y", "x", "z"})
	want := []uint32{0, 1, 0, 2}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("InternAll ids = %v, want %v", ids, want)
		}
	}
	if keys := tab.AppendKeys([]string{"w"}, ids); strings.Join(keys, ",") != "w,x,y,x,z" {
		t.Fatalf("AppendKeys = %v, want [w x y x z]", keys)
	}
}

// TestInternIDStability pins the id-assignment contract the index layer
// depends on: rebuilding a table from the same key stream yields
// identical ids, so an id-keyed index rebuilt for the same dataset/epoch
// addresses the same buckets.
func TestInternIDStability(t *testing.T) {
	keys := make([]string, 0, 512)
	for i := 0; i < 512; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i%97))
	}
	t1, t2 := New(), New()
	ids1 := t1.InternAll(nil, keys)
	ids2 := t2.InternAll(nil, keys)
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("id drift at %d: %d != %d", i, ids1[i], ids2[i])
		}
	}
	if t1.Len() != t2.Len() {
		t.Fatalf("Len drift: %d != %d", t1.Len(), t2.Len())
	}
}

// TestInternConcurrentReads exercises the concurrent-read contract under
// the race detector: many goroutines interleave Intern on a shared key
// set with Lookup/Key/Len, and every goroutine must observe one
// consistent id per key.
func TestInternConcurrentReads(t *testing.T) {
	tab := New()
	const goroutines = 8
	const keysPerG = 200
	var wg sync.WaitGroup
	got := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint32, keysPerG)
			for i := 0; i < keysPerG; i++ {
				key := fmt.Sprintf("shared-%d", i)
				ids[i] = tab.Intern(key)
				if id, ok := tab.Lookup(key); !ok || id != ids[i] {
					t.Errorf("Lookup(%q) = %d, %v; want %d", key, id, ok, ids[i])
					return
				}
				if k := tab.Key(ids[i]); k != key {
					t.Errorf("Key(%d) = %q, want %q", ids[i], k, key)
					return
				}
				_ = tab.Len()
			}
			got[g] = ids
		}()
	}
	wg.Wait()
	if tab.Len() != keysPerG {
		t.Fatalf("Len = %d, want %d", tab.Len(), keysPerG)
	}
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw id %d for key %d; goroutine 0 saw %d", g, got[g][i], i, got[0][i])
			}
		}
	}
}

// TestInternCapacityGuard exercises the uint32 overflow guard through
// the test-only cap: with the limit lowered, interning one key past it
// must panic rather than hand out a wrapped id.
func TestInternCapacityGuard(t *testing.T) {
	old := maxKeys
	maxKeys = 3
	defer func() { maxKeys = old }()

	tab := New()
	for i := 0; i < 3; i++ {
		tab.Intern(fmt.Sprintf("k%d", i))
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
	// Re-interning existing keys at the cap must still work.
	if id := tab.Intern("k1"); id != 1 {
		t.Fatalf("re-intern at cap = %d, want 1", id)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Intern past capacity did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "table full") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	tab.Intern("one-too-many")
}
