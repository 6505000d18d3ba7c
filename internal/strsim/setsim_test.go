package strsim

import "testing"

func setOf(items ...string) map[string]struct{} {
	s := make(map[string]struct{}, len(items))
	for _, it := range items {
		s[it] = struct{}{}
	}
	return s
}

func TestIntersectionSize(t *testing.T) {
	if got := IntersectionSize(setOf("a", "b"), setOf("b", "c")); got != 1 {
		t.Errorf("IntersectionSize = %d, want 1", got)
	}
}

func TestJaccardGramsAndTokens(t *testing.T) {
	if got := JaccardGrams("abc", "abc", 3); got != 1 {
		t.Errorf("identical strings should have gram Jaccard 1, got %v", got)
	}
	if got := JaccardTokens("the quick fox", "fox quick the"); got != 1 {
		t.Errorf("token order should not matter, got %v", got)
	}
	if got := JaccardTokens("alpha beta", "gamma delta"); got != 0 {
		t.Errorf("disjoint tokens should give 0, got %v", got)
	}
}

func TestWordOverlapFraction(t *testing.T) {
	// min side has 2 tokens, 2 shared -> 1.0
	if got := WordOverlapFraction("baker street", "221 baker street london"); got != 1 {
		t.Errorf("WordOverlapFraction = %v, want 1", got)
	}
	if got := WordOverlapFraction("", "x"); got != 0 {
		t.Errorf("empty side should give 0, got %v", got)
	}
}

func TestCommonTokenCount(t *testing.T) {
	if got := CommonTokenCount("a b c", "b c d"); got != 2 {
		t.Errorf("CommonTokenCount = %d, want 2", got)
	}
}
