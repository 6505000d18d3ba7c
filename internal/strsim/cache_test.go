package strsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomName(r *rand.Rand) string {
	words := []string{"sunita", "sarawagi", "s", "vinay", "deshpande", "kasliwal", "rao"}
	n := 1 + r.Intn(3)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[r.Intn(len(words))]
	}
	return out
}

// Property: every cached lookup agrees with the uncached function, on
// both first (miss) and second (hit) access.
func TestCacheAgreesWithUncached(t *testing.T) {
	corpus := buildCorpus("sunita sarawagi", "vinay deshpande", "s rao", "kasliwal")
	cache := NewCache(corpus)
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomName(r), randomName(r)
		for pass := 0; pass < 2; pass++ { // miss then hit
			var grams []string
			for g := range TriGrams(a) {
				grams = append(grams, g)
			}
			slices.Sort(grams)
			if !slices.Equal(cache.SortedGrams(a), grams) || len(cache.GramKeyIDs(a)) != len(grams) {
				return false
			}
			if !setsEqual(cache.TokenSet(a), TokenSet(a)) {
				return false
			}
			if cache.SortedInitials(a) != SortedInitials(a) {
				return false
			}
			if cache.InitialsEqual(a, b) != InitialsEqual(a, b) {
				return false
			}
			if cache.InitialsMatch(a, b) != InitialsMatch(a, b) {
				return false
			}
			if cache.MinIDF(a) != corpus.MinIDF(a) {
				return false
			}
			if cache.GramOverlapRatio(a, b) != GramOverlapRatio(a, b, 3) {
				return false
			}
			if cache.JaccardGrams(a, b) != JaccardGrams(a, b, 3) {
				return false
			}
			if cache.JaccardTokens(a, b) != JaccardTokens(a, b) {
				return false
			}
			if cache.CommonTokenCount(a, b) != CommonTokenCount(a, b) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func setsEqual(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func TestCacheWithoutCorpus(t *testing.T) {
	cache := NewCache(nil)
	if cache.MinIDF("anything") != 0 {
		t.Error("MinIDF without corpus should be 0")
	}
	// Other lookups still work.
	if cache.SortedInitials("a b") != "ab" {
		t.Error("SortedInitials broken without corpus")
	}
}

func TestCacheInitialLetters(t *testing.T) {
	cache := NewCache(nil)
	mask := cache.InitialLetters("alpha beta 9zulu")
	// 'a' and 'b' set; '9' ignored.
	if mask&(1<<0) == 0 || mask&(1<<1) == 0 {
		t.Errorf("mask missing a/b bits: %b", mask)
	}
	if mask != cache.InitialLetters("alpha beta 9zulu") {
		t.Error("cached mask differs on second call")
	}
	if cache.InitialLetters("") != 0 {
		t.Error("empty string should have empty mask")
	}
}

func BenchmarkCachedGramOverlap(b *testing.B) {
	cache := NewCache(nil)
	a, c := "sunita sarawagi", "s. sarawagi"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.GramOverlapRatio(a, c)
	}
}

func BenchmarkUncachedGramOverlap(b *testing.B) {
	a, c := "sunita sarawagi", "s. sarawagi"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramOverlapRatio(a, c, 3)
	}
}

func TestGramIDsConsistent(t *testing.T) {
	cache := NewCache(nil)
	a := cache.GramIDs("sarawagi")
	b := cache.GramIDs("sarawagi")
	if &a[0] != &b[0] {
		t.Error("GramIDs should be memoised (same backing slice)")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("ids not strictly sorted: %v", a)
		}
	}
	if len(a) != len(TriGrams("sarawagi")) {
		t.Errorf("id count %d != gram count %d", len(a), len(TriGrams("sarawagi")))
	}
	// Shared grams map to shared ids: overlap via ids equals map-based.
	got := cache.GramOverlapRatio("sarawagi", "sarawagl")
	want := GramOverlapRatio("sarawagi", "sarawagl", 3)
	if got != want {
		t.Errorf("interned overlap %v != reference %v", got, want)
	}
	if cache.GramOverlapRatio("", "abc") != 0 {
		t.Error("empty side should be 0")
	}
}
