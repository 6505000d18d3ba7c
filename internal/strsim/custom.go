package strsim

import "strings"

// FullNamesEqual reports whether both names consist only of full words (no
// single-letter initials) and their token multisets match exactly.
func FullNamesEqual(a, b string) bool {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.FullNamesEqual()
}

// AuthorSimilarity is the paper's custom similarity on the Author field
// (§6.1.1): 1 when full author names (names with no initials) match
// exactly; otherwise the maximum IDF weight of matching words, scaled to
// take a maximum value of 1.
func AuthorSimilarity(c *Corpus, a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.AuthorSimilarity(c)
}

// CoauthorSimilarity is the paper's custom similarity on the co-author
// field (§6.1.1): the same as AuthorSimilarity when that function takes
// either of the two extremes 0 or 1; otherwise the percentage of matching
// co-author words. The co-author field is a separator-joined list of names.
func CoauthorSimilarity(c *Corpus, a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.CoauthorSimilarity(c)
}

// SplitNameList splits a joined name list ("A Gupta; B Rao" or
// "A Gupta, B Rao") into individual names on ';' and ',' boundaries,
// trimming whitespace and dropping empties.
func SplitNameList(list string) []string {
	fields := strings.FieldsFunc(list, func(r rune) bool { return r == ';' || r == ',' })
	out := fields[:0]
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}
