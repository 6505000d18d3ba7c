package strsim

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzStrsim drives the pairwise similarity inventory with arbitrary
// byte strings and checks the contracts every predicate and scorer in
// the repo relies on: no panics, results in [0,1], symmetry, and
// self-similarity 1 for non-empty inputs — that the early-exit merge
// OverlapExceeds gives the verdict of the full overlap ratio at every
// threshold, and that every measure the pair kernel rewrote returns its
// map-based reference's bits. ci.sh runs a short -fuzztime smoke over
// the committed corpus on every build.
func FuzzStrsim(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"a", ""},
		{"acme corp", "acme corp."},
		{"J. Smith", "John Smith"},
		{"\x00\xff", "\xff\x00"},
		{"héllo wörld", "hello world"},
		{"aaaa", "aaab"},
		{"the of and", "of the and"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip("cap quadratic work")
		}
		cache := NewCache(nil)
		unit := []struct {
			name string
			fn   func(x, y string) float64
		}{
			{"EditSimilarity", EditSimilarity},
			{"Jaro", Jaro},
			{"JaroWinkler", JaroWinkler},
			{"JaccardGrams", cache.JaccardGrams},
			{"JaccardTokens", cache.JaccardTokens},
			{"GramOverlapRatio", cache.GramOverlapRatio},
		}
		for _, u := range unit {
			v := u.fn(a, b)
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("%s(%q, %q) = %v, outside [0,1]", u.name, a, b, v)
			}
			if w := u.fn(b, a); w != v {
				t.Fatalf("%s not symmetric: (%q,%q)=%v, (%q,%q)=%v", u.name, a, b, v, b, a, w)
			}
		}
		if a != "" {
			if v := EditSimilarity(a, a); v != 1 {
				t.Fatalf("EditSimilarity(%q, %q) = %v, want 1", a, a, v)
			}
			if v := Jaro(a, a); v != 1 {
				t.Fatalf("Jaro(%q, %q) = %v, want 1", a, a, v)
			}
		}
		if d := Levenshtein(a, b); d != Levenshtein(b, a) || d < 0 {
			t.Fatalf("Levenshtein(%q, %q) = %d, asymmetric or negative", a, b, d)
		}
		// The remaining scorers have no [0,1] contract; they must simply
		// never panic or produce NaN on any input.
		for _, v := range []float64{
			NeedlemanWunsch(a, b),
			MongeElkan(a, b, Jaro),
			cache.MinIDF(a),
		} {
			if math.IsNaN(v) {
				t.Fatalf("NaN from auxiliary scorer on (%q, %q)", a, b)
			}
		}
		Tokenize(a)
		Initials(a)
		if cache.InitialsMatch(a, b) != cache.InitialsMatch(b, a) {
			t.Fatalf("InitialsMatch not symmetric on (%q, %q)", a, b)
		}
		checkOverlapExceeds(t, cache.GramIDs(a), cache.GramIDs(b))
		checkOverlapExceeds(t, byteIDs(a), byteIDs(b))
		checkOverlapExceeds(t, byteIDs(a), nil)
		checkAgainstReference(t, fuzzCorpus, a, b)
	})
}

// fuzzCorpus gives the fuzzer's IDF measures both seen and unseen
// tokens.
var fuzzCorpus = referenceCorpus()

// byteIDs returns the distinct bytes of s as an ascending id slice: a
// second source of sorted id sets for the fuzzer, denser in overlaps
// than 3-gram ids.
func byteIDs(s string) []int32 {
	var seen [256]bool
	for i := 0; i < len(s); i++ {
		seen[s[i]] = true
	}
	var ids []int32
	for b, ok := range seen {
		if ok {
			ids = append(ids, int32(b))
		}
	}
	return ids
}

// checkOverlapExceeds pins OverlapExceeds(a, b, thr, strict) to the full
// merge's verdict — OverlapSortedIDs compared against thr, with ratio 0
// when either side is empty — at fixed thresholds and at every count
// boundary c/min(len) and its float neighbours, where an early exit that
// rounded differently would flip — and OverlapCountClears, handed the
// true intersection size, to the same verdict.
func checkOverlapExceeds(t *testing.T, a, b []int32) {
	t.Helper()
	ratio := 0.0
	small := len(a)
	if len(b) < small {
		small = len(b)
	}
	if small > 0 {
		ratio = OverlapSortedIDs(a, b)
	}
	common := IntersectSortedIDs(a, b)
	thrs := []float64{-1, 0, 0.3, 0.4, 0.5, 0.6, 0.9, 1, 1.5, math.NaN()}
	for c := 0; c <= small; c++ {
		edge := float64(c) / float64(small)
		thrs = append(thrs, edge, math.Nextafter(edge, -1), math.Nextafter(edge, 2))
	}
	for _, thr := range thrs {
		if got, want := OverlapExceeds(a, b, thr, true), ratio > thr; got != want {
			t.Fatalf("OverlapExceeds(%v, %v, %v, strict) = %v, ratio %v", a, b, thr, got, ratio)
		}
		if got, want := OverlapExceeds(a, b, thr, false), ratio >= thr; got != want {
			t.Fatalf("OverlapExceeds(%v, %v, %v, non-strict) = %v, ratio %v", a, b, thr, got, ratio)
		}
		if OverlapExceeds(a, b, thr, true) != OverlapExceeds(b, a, thr, true) {
			t.Fatalf("OverlapExceeds not symmetric on (%v, %v, %v)", a, b, thr)
		}
		for _, strict := range []bool{true, false} {
			if got, want := OverlapCountClears(common, small, thr, strict), OverlapExceeds(a, b, thr, strict); got != want {
				t.Fatalf("OverlapCountClears(%d, %d, %v, strict=%v) = %v, OverlapExceeds(%v, %v) = %v", common, small, thr, strict, got, a, b, want)
			}
		}
	}
}

// TestOverlapCountClearsRandomSets runs checkOverlapExceeds over seeded
// random sorted id sets, empty sides included: the count form of a
// gram-overlap predicate (the count, the smaller size, the threshold)
// and the early-exit merge over the two lists give one verdict.
func TestOverlapCountClearsRandomSets(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randomIDs := func() []int32 {
		var ids []int32
		for id := int32(0); id < 24; id++ {
			if r.Intn(3) == 0 {
				ids = append(ids, id)
			}
		}
		if r.Intn(10) == 0 {
			return nil
		}
		return ids
	}
	for trial := 0; trial < 2000; trial++ {
		checkOverlapExceeds(t, randomIDs(), randomIDs())
	}
}
