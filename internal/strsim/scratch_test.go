package strsim

import (
	"reflect"
	"testing"
)

var scratchInputs = []string{
	"efficient top-k count queries over imprecise duplicates",
	"J. Ullman and R. Motwani, Database Systems 2nd Ed.",
	"VLDB endowment proceedings VOLUME 2",
	"straße über zürich", // non-ASCII falls back to the rune scanner
	"MIXED Case TOKENS repeat MIXED case tokens",
	"",
}

// TestTokenScratchMatchesPackageFuncs: the pooled scratch produces
// exactly the package-level Tokenize/TokenSet results on every input
// class (ASCII lower, mixed case, non-ASCII, empty).
func TestTokenScratchMatchesPackageFuncs(t *testing.T) {
	ts := GetTokenScratch()
	defer ts.Release()
	for _, s := range scratchInputs {
		if got, want := ts.Tokens(s), Tokenize(s); !reflect.DeepEqual(append([]string(nil), got...), want) {
			t.Errorf("Tokens(%q) = %v, want %v", s, got, want)
		}
		if got, want := ts.TokenSet(s), TokenSet(s); !reflect.DeepEqual(got, want) {
			// Both may be empty with different nil-ness; compare sizes too.
			if len(got) != 0 || len(want) != 0 {
				t.Errorf("TokenSet(%q) = %v, want %v", s, got, want)
			}
		}
		counts := ts.TermCounts(s)
		want := map[string]int{}
		for _, tok := range Tokenize(s) {
			want[tok]++
		}
		if len(counts) != len(want) {
			t.Errorf("TermCounts(%q) = %v, want %v", s, counts, want)
		}
		for k, v := range want {
			if counts[k] != v {
				t.Errorf("TermCounts(%q)[%q] = %d, want %d", s, k, counts[k], v)
			}
		}
	}
}

// TestTokenScratchNoAllocs pins the pooled tokeniser at zero allocations
// per call in steady state: once the token slice, set map, and
// lower-casing memo are warm, re-tokenising a repeating vocabulary
// (including mixed-case ASCII) touches no fresh memory.
func TestTokenScratchNoAllocs(t *testing.T) {
	ts := GetTokenScratch()
	defer ts.Release()
	warm := []string{
		"efficient top-k count queries over imprecise duplicates",
		"MIXED Case TOKENS repeat MIXED case tokens",
	}
	for _, s := range warm {
		ts.TokenSet(s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, s := range warm {
			ts.TokenSet(s)
		}
	}); allocs != 0 {
		t.Fatalf("warm TokenSet = %v allocs/op, want 0", allocs)
	}
}

// TestStopWordsContainsNoAllocLowercase: the fast path must not
// lower-case already-lowercase words (the original implementation
// allocated on every Contains call).
func TestStopWordsContainsNoAllocLowercase(t *testing.T) {
	sw := NewStopWords("the", "of", "and")
	if !sw.Contains("the") || !sw.Contains("THE") || sw.Contains("query") {
		t.Fatal("Contains semantics broken")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sw.Contains("the")
		sw.Contains("query")
	}); allocs != 0 {
		t.Fatalf("lowercase Contains = %v allocs/op, want 0", allocs)
	}
}

// BenchmarkTokenSet contrasts the allocating package-level TokenSet with
// the pooled scratch on the same inputs.
func BenchmarkTokenSet(b *testing.B) {
	input := "efficient top-k count queries over imprecise duplicates in databases"
	b.Run("package", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TokenSet(input)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		ts := GetTokenScratch()
		defer ts.Release()
		ts.TokenSet(input)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts.TokenSet(input)
		}
	})
}
