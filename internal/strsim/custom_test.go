package strsim

import "testing"

func TestFullNamesEqual(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"Sunita Sarawagi", "Sarawagi Sunita", true}, // order-insensitive
		{"Sunita Sarawagi", "Sunita Sarawagi", true},
		{"S. Sarawagi", "Sunita Sarawagi", false}, // initial on one side
		{"Sunita Sarawagi", "S Sarawagi", false},
		{"Sunita Sarawagi", "Sunita Deshpande", false},
		{"", "", false}, // no tokens: not a meaningful match
		{"Sunita", "Sunita Sarawagi", false},
	}
	for _, tc := range tests {
		if got := FullNamesEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("FullNamesEqual(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAuthorSimilarity(t *testing.T) {
	c := buildCorpus(
		"sunita sarawagi", "vinay deshpande", "sourabh kasliwal",
		"john smith", "jane smith", "j smith",
	)
	if got := AuthorSimilarity(c, "Sunita Sarawagi", "Sarawagi Sunita"); got != 1 {
		t.Errorf("full name match should be exactly 1, got %v", got)
	}
	// Rare matching word scores higher than a common one.
	rare := AuthorSimilarity(c, "S. Sarawagi", "Sunita Sarawagi")
	common := AuthorSimilarity(c, "J. Smith", "John Smith")
	if rare <= common {
		t.Errorf("rare surname should score higher: rare=%v common=%v", rare, common)
	}
	if got := AuthorSimilarity(c, "Alpha Beta", "Gamma Delta"); got != 0 {
		t.Errorf("no common words should give 0, got %v", got)
	}
	// Partial matches never reach 1 (reserved for full-name equality).
	if got := AuthorSimilarity(c, "S. Sarawagi", "Sunita Sarawagi"); got >= 1 {
		t.Errorf("partial match must stay below 1, got %v", got)
	}
}

func TestCoauthorSimilarity(t *testing.T) {
	c := buildCorpus(
		"sunita sarawagi", "vinay deshpande", "sourabh kasliwal", "anhai doan",
	)
	// Extreme 0 passes through.
	if got := CoauthorSimilarity(c, "alpha beta", "gamma delta"); got != 0 {
		t.Errorf("extreme 0 should pass through, got %v", got)
	}
	// Extreme 1 (full-name equality) passes through.
	if got := CoauthorSimilarity(c, "vinay deshpande", "deshpande vinay"); got != 1 {
		t.Errorf("extreme 1 should pass through, got %v", got)
	}
	// Otherwise it is the word-overlap fraction.
	mid := CoauthorSimilarity(c, "sunita sarawagi, vinay deshpande", "sunita sarawagi, anhai doan")
	if want := WordOverlapFraction("sunita sarawagi, vinay deshpande", "sunita sarawagi, anhai doan"); mid != want {
		t.Errorf("mid-range should equal word overlap: got %v, want %v", mid, want)
	}
}
