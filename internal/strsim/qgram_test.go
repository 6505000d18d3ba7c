package strsim

import "testing"

func TestQGrams(t *testing.T) {
	grams := QGrams("abcd", 3)
	for _, g := range []string{"abc", "bcd"} {
		if _, ok := grams[g]; !ok {
			t.Errorf("missing gram %q", g)
		}
	}
	if len(grams) != 2 {
		t.Errorf("got %d grams, want 2: %v", len(grams), grams)
	}
}

func TestQGramsShortString(t *testing.T) {
	grams := QGrams("ab", 3)
	if len(grams) != 1 {
		t.Fatalf("short string should yield one gram, got %v", grams)
	}
	if _, ok := grams["ab"]; !ok {
		t.Errorf("short string gram should be the whole string, got %v", grams)
	}
}

func TestQGramsEmptyAndSeparators(t *testing.T) {
	if got := QGrams("", 3); len(got) != 0 {
		t.Errorf("empty string should yield no grams, got %v", got)
	}
	if got := QGrams("  .,  ", 3); len(got) != 0 {
		t.Errorf("separator-only string should yield no grams, got %v", got)
	}
}

func TestQGramsTokenBoundary(t *testing.T) {
	a := QGrams("ab cd", 3)
	b := QGrams("abcd", 3)
	// "ab cd" grams per token: {ab, cd}; "abcd": {abc, bcd} — disjoint.
	if IntersectionSize(a, b) != 0 {
		t.Errorf("token boundary should separate grams: %v vs %v", a, b)
	}
}

func TestQGramsWordOrderInsensitive(t *testing.T) {
	a, b := QGrams("om varma", 3), QGrams("varma om", 3)
	if refJaccard(a, b) != 1 {
		t.Errorf("gram sets must ignore word order: %v vs %v", a, b)
	}
}

func TestQGramsCaseInsensitive(t *testing.T) {
	a, b := QGrams("ABCD", 3), QGrams("abcd", 3)
	if refJaccard(a, b) != 1 {
		t.Errorf("grams should be case-insensitive: %v vs %v", a, b)
	}
}

func TestQGramsDefaultQ(t *testing.T) {
	a, b := QGrams("abcdef", 0), QGrams("abcdef", 3)
	if refJaccard(a, b) != 1 {
		t.Error("q <= 0 should default to 3")
	}
}

func TestTriGrams(t *testing.T) {
	a, b := TriGrams("hello world"), QGrams("hello world", 3)
	if refJaccard(a, b) != 1 {
		t.Error("TriGrams should equal QGrams with q=3")
	}
}

func TestGramOverlapRatio(t *testing.T) {
	if got := GramOverlapRatio("sarawagi", "sarawagi", 3); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := GramOverlapRatio("abc", "xyz", 3); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
	if got := GramOverlapRatio("", "abc", 3); got != 0 {
		t.Errorf("empty side = %v, want 0", got)
	}
	// A one-char typo in a long name should keep a high overlap ratio.
	if got := GramOverlapRatio("sarawagi", "sarawagl", 3); got < 0.5 {
		t.Errorf("single typo overlap = %v, want >= 0.5", got)
	}
}
