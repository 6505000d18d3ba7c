package strsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// HostileInputs are the edge cases the kernel must agree with the
// map-based reference on: empty and separator-only strings, non-ASCII
// letters (the rune tokeniser), repeated tokens, tokens shorter than q,
// mixed case, digits, and invalid UTF-8.
var HostileInputs = []string{
	"",
	" ",
	"., ;",
	"a",
	"ab",
	"ab ab ab",
	"a b c",
	"a a b",
	"J. Smith",
	"john SMITH",
	"Smith, J.",
	"smith smith john",
	"straße über zürich",
	"Ünïcödé ÜNÏCÖDÉ",
	"é",
	"é e",
	"héllo wörld",
	"hello world",
	"\x00\xff",
	"\xff\x00 ab",
	"12 34 1234",
	"the street of main road",
	"MIXED Case TOKENS repeat MIXED case tokens",
	"anitadeshpande",
	"anita deshpande",
	"s sarawagi; a gupta; b rao",
	"sunita sarawagi, a. gupta",
}

// checkAgainstReference compares every measure the kernel rewrote with
// its map-based reference on (a, b), bit for bit.
func checkAgainstReference(t *testing.T, c *Corpus, a, b string) {
	t.Helper()
	eq := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%q, %q) = %v (%#x), reference %v (%#x)", name, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, q := range []int{0, 2, 3} {
		eq("JaccardGrams", JaccardGrams(a, b, q), RefJaccardGrams(a, b, q))
		eq("GramOverlapRatio", GramOverlapRatio(a, b, q), RefGramOverlapRatio(a, b, q))
	}
	eq("JaccardTokens", JaccardTokens(a, b), RefJaccardTokens(a, b))
	eq("WordOverlapFraction", WordOverlapFraction(a, b), RefWordOverlapFraction(a, b))
	eq("InitialsJaccard", InitialsJaccard(a, b), RefInitialsJaccard(a, b))
	eq("CommonTokenCount", float64(CommonTokenCount(a, b)), float64(RefCommonTokenCount(a, b)))
	if got, want := FullNamesEqual(a, b), RefFullNamesEqual(a, b); got != want {
		t.Fatalf("FullNamesEqual(%q, %q) = %v, reference %v", a, b, got, want)
	}
	eq("MaxMatchingIDF", c.MaxMatchingIDF(a, b), RefMaxMatchingIDF(c, a, b))
	eq("AuthorSimilarity", AuthorSimilarity(c, a, b), RefAuthorSimilarity(c, a, b))
	eq("CoauthorSimilarity", CoauthorSimilarity(c, a, b), RefCoauthorSimilarity(c, a, b))
	eq("Levenshtein", float64(Levenshtein(a, b)), float64(RefLevenshtein(a, b)))
	eq("EditSimilarity", EditSimilarity(a, b), RefEditSimilarity(a, b))
	eq("Jaro", Jaro(a, b), RefJaro(a, b))
	eq("JaroWinkler", JaroWinkler(a, b), RefJaroWinkler(a, b))
	eq("NeedlemanWunsch", NeedlemanWunsch(a, b), RefNeedlemanWunsch(a, b))
	eq("TFIDFCosine", c.TFIDFCosine(a, b), RefTFIDFCosine(c, a, b))
	eq("MongeElkan", MongeElkan(a, b, nil), RefMongeElkan(a, b, nil))
	eq("MongeElkan/Jaro", MongeElkan(a, b, Jaro), RefMongeElkan(a, b, RefJaro))
	eq("SoftTFIDF", c.SoftTFIDF(a, b, nil, 0.9), RefSoftTFIDF(c, a, b, nil, 0.9))
	eq("SoftTFIDF/Jaro", c.SoftTFIDF(a, b, Jaro, 0), RefSoftTFIDF(c, a, b, RefJaro, 0))
	eq("NonStopOverlap", nonStopOverlap(a, b, AddressStopWords), RefNonStopOverlap(a, b, AddressStopWords))
}

// nonStopOverlap is PairScratch.NonStopOverlap on a pooled scratch (the
// measure has no package-level form).
func nonStopOverlap(a, b string, stop StopWords) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.NonStopOverlap(stop)
}

// referenceCorpus is a small corpus over the hostile inputs, so the IDF
// measures see both seen and unseen tokens.
func referenceCorpus() *Corpus {
	c := NewCorpus()
	for _, s := range HostileInputs[:len(HostileInputs)/2] {
		c.AddDoc(s)
	}
	c.Freeze()
	return c
}

// TestPairMatchesReference holds every measure the kernel rewrote to the
// map-based reference, bit for bit, on every ordered pair of the hostile
// inputs and on seeded random token strings over a small alphabet (so
// repeats, shared grams and shared initials are common).
func TestPairMatchesReference(t *testing.T) {
	c := referenceCorpus()
	for _, a := range HostileInputs {
		for _, b := range HostileInputs {
			checkAgainstReference(t, c, a, b)
		}
	}
	r := rand.New(rand.NewSource(7))
	word := func() string {
		var sb strings.Builder
		for n := 1 + r.Intn(6); n > 0; n-- {
			sb.WriteByte("abcAB1"[r.Intn(6)])
		}
		return sb.String()
	}
	text := func() string {
		var words []string
		for n := r.Intn(5); n > 0; n-- {
			words = append(words, word())
		}
		return strings.Join(words, []string{" ", ". ", ", "}[r.Intn(3)])
	}
	for trial := 0; trial < 3000; trial++ {
		checkAgainstReference(t, c, text(), text())
	}
}

// TestPairScratchReuse: one scratch Set to successive pairs, measures
// read in varying order, gives the values of a fresh scratch per pair —
// nothing derived from one pair leaks into the next.
func TestPairScratchReuse(t *testing.T) {
	c := referenceCorpus()
	ps := GetPairScratch()
	defer ps.Release()
	for i, a := range HostileInputs {
		b := HostileInputs[(i*7+3)%len(HostileInputs)]
		ps.Set(a, b)
		if i%2 == 0 {
			ps.InitialsJaccard()
			ps.TFIDFCosine(c)
		}
		got := []float64{ps.JaccardGrams(3), ps.GramOverlapRatio(2), ps.JaccardGrams(3), ps.InitialsJaccard(), ps.TFIDFCosine(c), ps.JaroWinkler()}
		want := []float64{RefJaccardGrams(a, b, 3), RefGramOverlapRatio(a, b, 2), RefJaccardGrams(a, b, 3), RefInitialsJaccard(a, b), RefTFIDFCosine(c, a, b), RefJaroWinkler(a, b)}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("pair %d (%q, %q) measure %d = %v, reference %v", i, a, b, k, got[k], want[k])
			}
		}
	}
}

// TestPairScratchReleaseDropsStrings: a released scratch holds no
// reference into the strings it was Set to, past its used length
// included (DESIGN.md "Pooled scratch buffers": never pin caller memory).
func TestPairScratchReleaseDropsStrings(t *testing.T) {
	c := referenceCorpus()
	ps := &PairScratch{lowered: map[string]string{}}
	ps.Set("a long field of many words many words", "another long one")
	ps.JaccardGrams(3)
	ps.TFIDFCosine(c)
	ps.NonStopOverlap(AddressStopWords)
	ps.Set("short", "")
	ps.JaccardGrams(3)
	ps.Release()
	for _, sd := range []*pairSide{&ps.a, &ps.b} {
		if sd.raw != "" {
			t.Errorf("raw = %q after Release", sd.raw)
		}
		for _, buf := range [][]string{sd.toks, sd.sorted, sd.grams, sd.kept} {
			for i, s := range buf[:cap(buf)] {
				if s != "" {
					t.Errorf("buffer slot %d = %q after Release", i, s)
				}
			}
		}
		for i, tw := range sd.terms[:cap(sd.terms)] {
			if tw.term != "" {
				t.Errorf("term slot %d = %q after Release", i, tw.term)
			}
		}
	}
}

// TestPairScratchNoAllocs pins a warm scratch at zero allocations for
// every measure on ASCII input: Set, the gram, token, initial and term
// merges, the IDF measures, and the DP and Jaro buffers.
func TestPairScratchNoAllocs(t *testing.T) {
	c := referenceCorpus()
	ps := GetPairScratch()
	defer ps.Release()
	run := func() {
		ps.Set("Sunita Sarawagi", "S. Sarawagi and sunita")
		ps.JaccardGrams(3)
		ps.GramOverlapRatio(3)
		ps.InitialsJaccard()
		ps.JaroWinkler()
		ps.EditSimilarity()
		ps.NeedlemanWunsch()
		ps.AuthorSimilarity(c)
		ps.CoauthorSimilarity(c)
		ps.JaccardTokens()
		ps.TFIDFCosine(c)
		ps.MongeElkan(nil)
		ps.SoftTFIDF(c, nil, 0.9)
		ps.NonStopOverlap(AddressStopWords)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm PairScratch = %v allocs/op, want 0", allocs)
	}
}
