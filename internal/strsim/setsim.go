package strsim

// jaccardCounts is Jaccard from set sizes: |A ∩ B| / |A ∪ B|, two empty
// sets 1, one empty set 0. Every Jaccard form (sorted ids, the pair
// kernel's sorted slices) divides through it.
func jaccardCounts(na, nb, common int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(common) / float64(na+nb-common)
}

// overlapCounts is the overlap coefficient from set sizes: |A ∩ B| /
// min(|A|, |B|), 0 when either set is empty.
func overlapCounts(na, nb, common int) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(common) / float64(min(na, nb))
}

// IntersectionSize returns |A ∩ B|.
func IntersectionSize[T comparable](a, b map[T]struct{}) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for x := range a {
		if _, ok := b[x]; ok {
			inter++
		}
	}
	return inter
}

// JaccardGrams is Jaccard similarity over the q-gram sets of two strings:
// the "Jaccard similarity of 3-grams > T" predicate family from the paper.
func JaccardGrams(a, b string, q int) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.JaccardGrams(q)
}

// JaccardTokens is Jaccard similarity over the word-token sets.
func JaccardTokens(a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.JaccardTokens()
}

// WordOverlapFraction returns |tokens(a) ∩ tokens(b)| / min(|tokens(a)|,
// |tokens(b)|): the paper's "fraction of common (non-stop) words" measure.
func WordOverlapFraction(a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.WordOverlapFraction()
}

// CommonTokenCount returns the number of distinct tokens shared by a and b.
func CommonTokenCount(a, b string) int {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.CommonTokenCount()
}

// InitialsJaccard is Jaccard similarity over the sets of token initials
// (first bytes): "S. Sarawagi" and "Sunita Sarawagi" give 1.
func InitialsJaccard(a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.InitialsJaccard()
}
