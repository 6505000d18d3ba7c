package strsim

// QGrams returns the set of q-grams of s, computed per lower-cased token
// so the result is insensitive to word order ("om varma" and "varma om"
// yield identical gram sets — exactly what name-matching predicates
// need). Tokens shorter than q contribute themselves as a single gram, so
// initials and short words still compare non-trivially.
func QGrams(s string, q int) map[string]struct{} {
	if q <= 0 {
		q = 3
	}
	grams := make(map[string]struct{})
	for _, tok := range Tokenize(s) {
		if len(tok) < q {
			grams[tok] = struct{}{}
			continue
		}
		for i := 0; i+q <= len(tok); i++ {
			grams[tok[i:i+q]] = struct{}{}
		}
	}
	return grams
}

// TriGrams is QGrams with q=3, the setting used throughout the paper's
// predicates ("common 3-Grams in the author field ...").
func TriGrams(s string) map[string]struct{} { return QGrams(s, 3) }

// GramOverlapRatio returns |grams(a) ∩ grams(b)| / min(|grams(a)|, |grams(b)|),
// the paper's "common 3-Grams ... more than X% of the size of the smaller
// field" measure. Empty inputs give 0.
func GramOverlapRatio(a, b string, q int) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.GramOverlapRatio(q)
}
