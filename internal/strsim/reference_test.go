package strsim

import (
	"math"
	"slices"
	"strings"
)

// The map-based measures the pair kernel (pair.go) replaced, kept
// verbatim as the reference it is held to: every rewritten function must
// return these values bit for bit (FuzzStrsim, TestPairMatchesReference,
// and TestFeatureVectorsMatchReference over the domains' feature sets).
// They are exported so the external test package can build the domains'
// reference feature vectors from them.

// refJaccard is the map-based Jaccard: two empty sets 1, one empty set 0.
func refJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for x := range a {
		if _, ok := b[x]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// refOverlapRatio is the map-based overlap ratio: 0 when either set is
// empty.
func refOverlapRatio(ga, gb map[string]struct{}) float64 {
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	if len(gb) < len(ga) {
		ga, gb = gb, ga
	}
	common := 0
	for g := range ga {
		if _, ok := gb[g]; ok {
			common++
		}
	}
	return float64(common) / float64(len(ga))
}

// RefJaccardGrams is the map-based JaccardGrams.
func RefJaccardGrams(a, b string, q int) float64 {
	return refJaccard(QGrams(a, q), QGrams(b, q))
}

// RefGramOverlapRatio is the map-based GramOverlapRatio.
func RefGramOverlapRatio(a, b string, q int) float64 {
	return refOverlapRatio(QGrams(a, q), QGrams(b, q))
}

// RefJaccardTokens is the map-based JaccardTokens.
func RefJaccardTokens(a, b string) float64 {
	return refJaccard(TokenSet(a), TokenSet(b))
}

// RefWordOverlapFraction is the map-based WordOverlapFraction.
func RefWordOverlapFraction(a, b string) float64 {
	return refOverlapRatio(TokenSet(a), TokenSet(b))
}

// RefCommonTokenCount is the map-based CommonTokenCount.
func RefCommonTokenCount(a, b string) int {
	return IntersectionSize(TokenSet(a), TokenSet(b))
}

// RefInitialsJaccard is the map-based InitialsJaccard (the domains'
// former initialsJaccard).
func RefInitialsJaccard(a, b string) float64 {
	sa := make(map[string]struct{})
	for _, t := range Tokenize(a) {
		sa[t[:1]] = struct{}{}
	}
	sb := make(map[string]struct{})
	for _, t := range Tokenize(b) {
		sb[t[:1]] = struct{}{}
	}
	return refJaccard(sa, sb)
}

// RefNonStopOverlap is the address feature set's former overlap of the
// non-stop token sets.
func RefNonStopOverlap(a, b string, stop StopWords) float64 {
	fa := make(map[string]struct{})
	for _, t := range stop.Filter(a) {
		fa[t] = struct{}{}
	}
	fb := make(map[string]struct{})
	for _, t := range stop.Filter(b) {
		fb[t] = struct{}{}
	}
	if len(fa) == 0 && len(fb) == 0 {
		return 1
	}
	return refOverlapRatio(fa, fb)
}

func refHasInitialToken(name string) bool {
	for _, t := range Tokenize(name) {
		if len(t) == 1 {
			return true
		}
	}
	return false
}

// RefFullNamesEqual is the allocating FullNamesEqual.
func RefFullNamesEqual(a, b string) bool {
	if refHasInitialToken(a) || refHasInitialToken(b) {
		return false
	}
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) != len(tb) {
		return false
	}
	slices.Sort(ta)
	slices.Sort(tb)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return len(ta) > 0
}

// RefMaxMatchingIDF is the map-based Corpus.MaxMatchingIDF.
func RefMaxMatchingIDF(c *Corpus, a, b string) float64 {
	sa := TokenSet(a)
	best := 0.0
	for t := range TokenSet(b) {
		if _, ok := sa[t]; !ok {
			continue
		}
		if v := c.IDF(t); v > best {
			best = v
		}
	}
	return best
}

// RefAuthorSimilarity is AuthorSimilarity over the reference measures.
func RefAuthorSimilarity(c *Corpus, a, b string) float64 {
	if RefFullNamesEqual(a, b) {
		return 1
	}
	maxIDF := c.MaxIDF()
	if maxIDF == 0 {
		return 0
	}
	sim := RefMaxMatchingIDF(c, a, b) / maxIDF
	if sim >= 1 {
		sim = 0.999
	}
	return sim
}

// RefCoauthorSimilarity is CoauthorSimilarity over the reference
// measures.
func RefCoauthorSimilarity(c *Corpus, a, b string) float64 {
	s := RefAuthorSimilarity(c, a, b)
	if s == 0 || s == 1 {
		return s
	}
	return RefWordOverlapFraction(a, b)
}

// RefLevenshtein is Levenshtein with freshly allocated rows.
func RefLevenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		bj := b[j-1]
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == bj {
				cost = 0
			}
			m := prev[i-1] + cost
			if d := prev[i] + 1; d < m {
				m = d
			}
			if d := cur[i-1] + 1; d < m {
				m = d
			}
			cur[i] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}

// RefEditSimilarity is EditSimilarity over RefLevenshtein.
func RefEditSimilarity(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	return 1 - float64(RefLevenshtein(a, b))/float64(maxLen)
}

// RefJaro is Jaro with freshly allocated match flags.
func RefJaro(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := max(len(a), len(b))/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch := make([]bool, len(a))
	bMatch := make([]bool, len(b))
	matches := 0
	for i := 0; i < len(a); i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || a[i] != b[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < len(a); i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(a)) + m/float64(len(b)) + (m-t)/m) / 3
}

// RefJaroWinkler is JaroWinkler over RefJaro.
func RefJaroWinkler(a, b string) float64 {
	j := RefJaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// RefNeedlemanWunsch is NeedlemanWunsch with freshly allocated rows.
func RefNeedlemanWunsch(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = -j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = -i
		for j := 1; j <= len(b); j++ {
			s := 1
			if a[i-1] != b[j-1] {
				s = -1
			}
			best := prev[j-1] + s
			if d := prev[j] - 1; d > best {
				best = d
			}
			if d := cur[j-1] - 1; d > best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	sim := float64(prev[len(b)]) / float64(maxLen)
	if sim < 0 {
		sim = 0
	}
	return sim
}

// refTerm is one (token, term frequency) entry of a reference term
// vector.
type refTerm struct {
	term string
	tf   int
}

func refSortedTerms(toks []string) []refTerm {
	var dst []refTerm
	for _, t := range toks {
		dst = append(dst, refTerm{term: t, tf: 1})
	}
	slices.SortFunc(dst, func(a, b refTerm) int { return strings.Compare(a.term, b.term) })
	out := dst[:0]
	for _, t := range dst {
		if n := len(out); n > 0 && out[n-1].term == t.term {
			out[n-1].tf++
			continue
		}
		out = append(out, t)
	}
	return out
}

// RefTFIDFCosine is Corpus.TFIDFCosine over freshly built term vectors.
func RefTFIDFCosine(c *Corpus, a, b string) float64 {
	ta, tb := refSortedTerms(Tokenize(a)), refSortedTerms(Tokenize(b))
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for _, t := range ta {
		va := float64(t.tf) * c.IDF(t.term)
		na += va * va
	}
	for _, t := range tb {
		vb := float64(t.tf) * c.IDF(t.term)
		nb += vb * vb
	}
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		switch cmp := strings.Compare(ta[i].term, tb[j].term); {
		case cmp == 0:
			w := c.IDF(ta[i].term)
			dot += float64(ta[i].tf) * w * float64(tb[j].tf) * w
			i++
			j++
		case cmp < 0:
			i++
		default:
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / math.Sqrt(na*nb)
	if sim > 1 {
		sim = 1
	}
	return sim
}

// RefMongeElkan is MongeElkan over RefJaroWinkler (inner nil).
func RefMongeElkan(a, b string, inner func(x, y string) float64) float64 {
	if inner == nil {
		inner = RefJaroWinkler
	}
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	dir := func(xs, ys []string) float64 {
		var total float64
		for _, x := range xs {
			best := 0.0
			for _, y := range ys {
				if s := inner(x, y); s > best {
					best = s
				}
			}
			total += best
		}
		return total / float64(len(xs))
	}
	ab, ba := dir(ta, tb), dir(tb, ta)
	if ab > ba {
		return ab
	}
	return ba
}

// RefSoftTFIDF is Corpus.SoftTFIDF over freshly built term vectors and
// RefJaroWinkler (inner nil).
func RefSoftTFIDF(c *Corpus, a, b string, inner func(x, y string) float64, theta float64) float64 {
	if inner == nil {
		inner = RefJaroWinkler
	}
	if theta <= 0 {
		theta = 0.9
	}
	ta, tb := refSortedTerms(Tokenize(a)), refSortedTerms(Tokenize(b))
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	norm := func(tc []refTerm) float64 {
		var n float64
		for _, t := range tc {
			v := float64(t.tf) * c.IDF(t.term)
			n += v * v
		}
		return n
	}
	na, nb := norm(ta), norm(tb)
	if na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for _, x := range ta {
		bestSim, bestTok, bestTF := 0.0, "", 0
		for _, y := range tb {
			if s := inner(x.term, y.term); s >= theta && s > bestSim {
				bestSim, bestTok, bestTF = s, y.term, y.tf
			}
		}
		if bestTok == "" {
			continue
		}
		dot += float64(x.tf) * c.IDF(x.term) * float64(bestTF) * c.IDF(bestTok) * bestSim
	}
	sim := dot / math.Sqrt(na*nb)
	if sim > 1 {
		sim = 1
	}
	return sim
}
