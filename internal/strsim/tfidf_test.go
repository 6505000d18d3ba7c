package strsim

import (
	"math"
	"testing"
)

func buildCorpus(docs ...string) *Corpus {
	c := NewCorpus()
	for _, d := range docs {
		c.AddDoc(d)
	}
	c.Freeze()
	return c
}

func TestCorpusCounts(t *testing.T) {
	c := buildCorpus("a b", "a c", "a d")
	if c.DocCount() != 3 {
		t.Errorf("DocCount = %d, want 3", c.DocCount())
	}
}

func TestIDFOrdering(t *testing.T) {
	c := buildCorpus("common rare1", "common x", "common y", "common z")
	if c.IDF("common") >= c.IDF("rare1") {
		t.Errorf("common token should have lower IDF: common=%v rare=%v",
			c.IDF("common"), c.IDF("rare1"))
	}
	if c.IDF("neverseen") != c.MaxIDF() {
		t.Errorf("unseen token should get MaxIDF")
	}
	if c.IDF("rare1") > c.MaxIDF() {
		t.Errorf("no token should exceed MaxIDF")
	}
}

func TestIDFBeforeFreeze(t *testing.T) {
	c := NewCorpus()
	c.AddDoc("alpha beta")
	c.AddDoc("alpha gamma")
	// Query without freezing should still work.
	if c.IDF("alpha") >= c.IDF("beta") {
		t.Error("alpha (df=2) should have lower IDF than beta (df=1)")
	}
}

func TestAddDocAfterFreezePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AddDoc after Freeze")
		}
	}()
	c := buildCorpus("a")
	c.AddDoc("b")
}

func TestMinIDF(t *testing.T) {
	c := buildCorpus("common rare", "common a", "common b", "common c")
	got := c.MinIDF("common rare")
	if got != c.IDF("common") {
		t.Errorf("MinIDF should pick the common token: got %v, want %v", got, c.IDF("common"))
	}
	if c.MinIDF("") != 0 {
		t.Error("MinIDF of empty string should be 0")
	}
}

func TestMaxMatchingIDF(t *testing.T) {
	c := buildCorpus("common rare", "common a", "common b", "common c")
	got := c.MaxMatchingIDF("common rare", "rare other")
	if got != c.IDF("rare") {
		t.Errorf("MaxMatchingIDF = %v, want IDF(rare)=%v", got, c.IDF("rare"))
	}
	if c.MaxMatchingIDF("abc", "xyz") != 0 {
		t.Error("no common tokens should give 0")
	}
}

func TestTFIDFCosine(t *testing.T) {
	c := buildCorpus("alpha beta", "alpha gamma", "delta eps")
	if got := c.TFIDFCosine("alpha beta", "alpha beta"); !close64(got, 1, 1e-12) {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := c.TFIDFCosine("alpha beta", "delta eps"); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
	if got := c.TFIDFCosine("", ""); got != 1 {
		t.Errorf("empty-empty = %v, want 1", got)
	}
	if got := c.TFIDFCosine("alpha", ""); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	mid := c.TFIDFCosine("alpha beta", "alpha gamma")
	if mid <= 0 || mid >= 1 {
		t.Errorf("partial overlap should be strictly between 0 and 1, got %v", mid)
	}
	// Rare shared token should contribute more than a common one.
	c2 := buildCorpus("alpha beta", "alpha gamma", "alpha delta", "alpha eps")
	simRare := c2.TFIDFCosine("alpha beta", "zzz beta")
	simCommon := c2.TFIDFCosine("alpha beta", "zzz alpha")
	if simRare <= simCommon {
		t.Errorf("rare shared token should score higher: rare=%v common=%v", simRare, simCommon)
	}
}

func TestTFIDFCosineSymmetricAndBounded(t *testing.T) {
	c := buildCorpus("a b c", "b c d", "c d e", "x y z")
	pairs := [][2]string{
		{"a b", "b c"}, {"a", "a a a"}, {"x y z", "a b c"}, {"c", "c"},
	}
	for _, p := range pairs {
		s1, s2 := c.TFIDFCosine(p[0], p[1]), c.TFIDFCosine(p[1], p[0])
		if math.Abs(s1-s2) > 1e-12 {
			t.Errorf("asymmetric: %v vs %v for %q %q", s1, s2, p[0], p[1])
		}
		if s1 < 0 || s1 > 1 {
			t.Errorf("out of range: %v for %q %q", s1, p[0], p[1])
		}
	}
}
