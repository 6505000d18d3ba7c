package strsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSharedCacheConcurrentReads hammers one shared cache from many
// goroutines (run under -race; this is the test that catches a cache
// leaking across workers without synchronisation) and checks every
// result against an unshared reference cache.
func TestSharedCacheConcurrentReads(t *testing.T) {
	corpus := buildCorpus("sunita sarawagi", "vinay deshpande", "s rao", "kasliwal")
	shared := NewSharedCache(corpus)
	if !shared.Shared() {
		t.Fatal("NewSharedCache must report Shared()")
	}
	if NewCache(nil).Shared() {
		t.Fatal("NewCache must not report Shared()")
	}

	names := make([]string, 64)
	r := rand.New(rand.NewSource(7))
	for i := range names {
		names[i] = randomName(r)
	}
	ref := NewCache(corpus)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 2000; it++ {
				a := names[r.Intn(len(names))]
				b := names[r.Intn(len(names))]
				if got, want := shared.GramOverlapRatio(a, b), GramOverlapRatio(a, b, 3); got != want {
					errs <- fmt.Errorf("GramOverlapRatio(%q,%q) = %v, want %v", a, b, got, want)
					return
				}
				if got, want := shared.JaccardTokens(a, b), JaccardTokens(a, b); got != want {
					errs <- fmt.Errorf("JaccardTokens(%q,%q) = %v, want %v", a, b, got, want)
					return
				}
				if shared.InitialsEqual(a, b) != InitialsEqual(a, b) {
					errs <- fmt.Errorf("InitialsEqual(%q,%q) diverged", a, b)
					return
				}
				if shared.InitialsMatch(a, b) != InitialsMatch(a, b) {
					errs <- fmt.Errorf("InitialsMatch(%q,%q) diverged", a, b)
					return
				}
				if got, want := shared.MinIDF(a), corpus.MinIDF(a); got != want {
					errs <- fmt.Errorf("MinIDF(%q) = %v, want %v", a, got, want)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the concurrent warm-up, the shared cache agrees entry-for-entry
	// with a serially-built reference.
	for _, a := range names {
		for _, b := range names {
			if shared.GramOverlapRatio(a, b) != ref.GramOverlapRatio(a, b) {
				t.Fatalf("post-warmup overlap(%q,%q) differs from serial cache", a, b)
			}
		}
	}
}

// TestSharedCacheMemoises checks the shared mode still returns one
// canonical entry per key (the point of the double-checked store).
func TestSharedCacheMemoises(t *testing.T) {
	c := NewSharedCache(nil)
	a := c.GramIDs("sarawagi")
	b := c.GramIDs("sarawagi")
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("shared GramIDs should be memoised (same backing slice)")
	}
	g1 := c.GramKeyIDs("deshpande")
	g2 := c.GramKeyIDs("deshpande")
	if len(g1) == 0 || &g1[0] != &g2[0] {
		t.Error("shared GramKeyIDs should be memoised (same backing slice)")
	}
}

func BenchmarkSharedCachedGramOverlap(b *testing.B) {
	cache := NewSharedCache(nil)
	x, y := "sunita sarawagi", "s. sarawagi"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.GramOverlapRatio(x, y)
	}
}
