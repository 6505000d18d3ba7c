package strsim

import (
	"cmp"
	"slices"
	"sync"
)

// PairScratch is the similarity kernel every feature vector runs on:
// pooled per-pair state holding, for each side of one field pair, the
// field's lower-cased tokens — in text order and sorted with repeats
// kept — and, built on first use, its distinct q-grams and distinct
// token initials as sorted slices. Every set measure is a linear merge
// count over those slices, and the edit and alignment measures take their
// DP rows and match flags from the same scratch, so scoring a pair
// tokenises each field once and, in steady state on ASCII input,
// allocates nothing (see DESIGN.md "Pooled scratch buffers").
//
// Counts are the same integers the map-based sets gave, divided the same
// way, so every measure is bit-identical to its map-based form (held to
// it by TestPairMatchesReference and FuzzStrsim). The package-level
// string functions (JaccardGrams, AuthorSimilarity, Jaro, ...) are thin
// wrappers that Set a pooled scratch and call its method.
//
// Ownership follows TokenScratch: get one with GetPairScratch, Set it to
// a field pair, read any number of measures, Set the next field pair,
// and Release it; never share one across goroutines or use it after
// Release. The scratch slices its tokens out of the strings it is Set
// to and lets go of them on Release; a token of a mixed-case ASCII
// field is lower-cased once through a memo that persists across
// Release, capped at lowerMemoCap entries.
type PairScratch struct {
	a, b    pairSide
	lowered map[string]string
	rows    [2][]int // Levenshtein / Needleman-Wunsch DP rows
	flags   []bool   // Jaro match flags, both sides
}

// pairSide is one field value of a PairScratch pair. grams, inits and
// terms are derived from sorted on first use and marked stale by set;
// kept is NonStopOverlap's buffer.
type pairSide struct {
	raw    string
	toks   []string // lower-cased tokens, text order
	sorted []string // toks sorted, repeats kept
	grams  []string // distinct q-grams, sorted; valid when gramQ == q
	gramQ  int
	inits  []byte // distinct token initials, sorted; valid when hasInits
	terms  []termWeight
	kept   []string // sorted non-stop tokens (NonStopOverlap)

	hasInits, hasTerms bool
}

// termWeight is one (token, term frequency) entry of a sorted term
// vector (see PairScratch.TFIDFCosine).
type termWeight struct {
	term string
	tf   int
}

var pairScratchPool = sync.Pool{New: func() any {
	return &PairScratch{lowered: make(map[string]string, 16)}
}}

// GetPairScratch returns a scratch from the package pool. Pair every Get
// with a Release.
func GetPairScratch() *PairScratch {
	return pairScratchPool.Get().(*PairScratch)
}

// Release returns the scratch to the pool, keeping its buffers but
// dropping every reference into the strings it was Set to. The caller
// must not use the scratch afterwards.
func (ps *PairScratch) Release() {
	ps.a.release()
	ps.b.release()
	pairScratchPool.Put(ps)
}

// release zeroes the side's buffers to their full capacity: a shorter
// Set leaves stale tokens past the used length.
func (sd *pairSide) release() {
	sd.raw = ""
	clear(sd.toks[:cap(sd.toks)])
	clear(sd.sorted[:cap(sd.sorted)])
	clear(sd.grams[:cap(sd.grams)])
	clear(sd.terms[:cap(sd.terms)])
	clear(sd.kept[:cap(sd.kept)])
}

// pairOf returns a pooled scratch Set to (a, b): the body of every
// package-level set measure.
func pairOf(a, b string) *PairScratch {
	ps := GetPairScratch()
	ps.Set(a, b)
	return ps
}

// Set tokenises the field pair (a, b) — once per side — replacing what
// the scratch held.
func (ps *PairScratch) Set(a, b string) {
	if len(ps.lowered) > lowerMemoCap {
		clear(ps.lowered)
	}
	ps.a.set(a, ps.lowered)
	ps.b.set(b, ps.lowered)
}

func (sd *pairSide) set(s string, lowered map[string]string) {
	sd.raw = s
	sd.toks = appendTokens(sd.toks[:0], s, lowered)
	sd.sorted = append(sd.sorted[:0], sd.toks...)
	slices.Sort(sd.sorted)
	sd.gramQ, sd.hasInits, sd.hasTerms = 0, false, false
}

// qgrams returns the side's distinct q-grams, sorted (QGrams' set: grams
// per token, a token shorter than q its own gram; q <= 0 means 3).
func (sd *pairSide) qgrams(q int) []string {
	if q <= 0 {
		q = 3
	}
	if sd.gramQ == q {
		return sd.grams
	}
	g := sd.grams[:0]
	for i, tok := range sd.sorted {
		if i > 0 && tok == sd.sorted[i-1] {
			continue
		}
		if len(tok) < q {
			g = append(g, tok)
			continue
		}
		for k := 0; k+q <= len(tok); k++ {
			g = append(g, tok[k:k+q])
		}
	}
	slices.Sort(g)
	sd.grams, sd.gramQ = slices.Compact(g), q
	return sd.grams
}

// initials returns the side's distinct token initials (first bytes),
// sorted. The tokens are sorted bytewise, so their first bytes already
// come in order.
func (sd *pairSide) initials() []byte {
	if sd.hasInits {
		return sd.inits
	}
	sd.inits = sd.inits[:0]
	for _, tok := range sd.sorted {
		if n := len(sd.inits); n == 0 || sd.inits[n-1] != tok[0] {
			sd.inits = append(sd.inits, tok[0])
		}
	}
	sd.hasInits = true
	return sd.inits
}

// termVector returns the side's distinct tokens with their occurrence
// counts, sorted by token.
func (sd *pairSide) termVector() []termWeight {
	if sd.hasTerms {
		return sd.terms
	}
	sd.terms = sd.terms[:0]
	for _, tok := range sd.sorted {
		if n := len(sd.terms); n > 0 && sd.terms[n-1].term == tok {
			sd.terms[n-1].tf++
			continue
		}
		sd.terms = append(sd.terms, termWeight{term: tok, tf: 1})
	}
	sd.hasTerms = true
	return sd.terms
}

// mergeCounts merges two ascending slices, repeats allowed, and returns
// the number of distinct values on each side and in both.
func mergeCounts[T cmp.Ordered](a, b []T) (na, nb, common int) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			na++
			i = skipRun(a, i)
		case i == len(a) || b[j] < a[i]:
			nb++
			j = skipRun(b, j)
		default:
			na, nb, common = na+1, nb+1, common+1
			i, j = skipRun(a, i), skipRun(b, j)
		}
	}
	return na, nb, common
}

// skipRun returns the index past the run of values equal to s[i].
func skipRun[T comparable](s []T, i int) int {
	v := s[i]
	for i++; i < len(s) && s[i] == v; i++ {
	}
	return i
}

// JaccardGrams is JaccardGrams on the pair.
func (ps *PairScratch) JaccardGrams(q int) float64 {
	return jaccardCounts(mergeCounts(ps.a.qgrams(q), ps.b.qgrams(q)))
}

// GramOverlapRatio is GramOverlapRatio on the pair.
func (ps *PairScratch) GramOverlapRatio(q int) float64 {
	return overlapCounts(mergeCounts(ps.a.qgrams(q), ps.b.qgrams(q)))
}

// JaccardTokens is JaccardTokens on the pair.
func (ps *PairScratch) JaccardTokens() float64 {
	return jaccardCounts(mergeCounts(ps.a.sorted, ps.b.sorted))
}

// WordOverlapFraction is WordOverlapFraction on the pair.
func (ps *PairScratch) WordOverlapFraction() float64 {
	return overlapCounts(mergeCounts(ps.a.sorted, ps.b.sorted))
}

// CommonTokenCount is CommonTokenCount on the pair.
func (ps *PairScratch) CommonTokenCount() int {
	_, _, common := mergeCounts(ps.a.sorted, ps.b.sorted)
	return common
}

// InitialsJaccard is InitialsJaccard on the pair.
func (ps *PairScratch) InitialsJaccard() float64 {
	return jaccardCounts(mergeCounts(ps.a.initials(), ps.b.initials()))
}

// NonStopOverlap is the overlap coefficient of the two sides' distinct
// non-stop tokens — two sides with none give 1, one side with none 0 —
// the address feature set's "fraction of common non-stop words".
func (ps *PairScratch) NonStopOverlap(stop StopWords) float64 {
	ps.a.kept = stop.FilterTokens(append(ps.a.kept[:0], ps.a.sorted...))
	ps.b.kept = stop.FilterTokens(append(ps.b.kept[:0], ps.b.sorted...))
	na, nb, common := mergeCounts(ps.a.kept, ps.b.kept)
	if na == 0 && nb == 0 {
		return 1
	}
	return overlapCounts(na, nb, common)
}

// FullNamesEqual is FullNamesEqual on the pair.
func (ps *PairScratch) FullNamesEqual() bool {
	a, b := ps.a.sorted, ps.b.sorted
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) == 1 || len(b[i]) == 1 || a[i] != b[i] {
			return false
		}
	}
	return true
}

// MaxMatchingIDF is Corpus.MaxMatchingIDF on the pair.
func (ps *PairScratch) MaxMatchingIDF(c *Corpus) float64 {
	a, b := ps.a.sorted, ps.b.sorted
	best := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i = skipRun(a, i)
		case b[j] < a[i]:
			j = skipRun(b, j)
		default:
			if v := c.IDF(a[i]); v > best {
				best = v
			}
			i, j = skipRun(a, i), skipRun(b, j)
		}
	}
	return best
}

// AuthorSimilarity is AuthorSimilarity on the pair.
func (ps *PairScratch) AuthorSimilarity(c *Corpus) float64 {
	if ps.FullNamesEqual() {
		return 1
	}
	maxIDF := c.MaxIDF()
	if maxIDF == 0 {
		return 0
	}
	sim := ps.MaxMatchingIDF(c) / maxIDF
	if sim >= 1 {
		// Reserve exactly-1 for the full-name match so the two regimes of
		// the piecewise definition stay distinguishable.
		sim = 0.999
	}
	return sim
}

// CoauthorSimilarity is CoauthorSimilarity on the pair.
func (ps *PairScratch) CoauthorSimilarity(c *Corpus) float64 {
	s := ps.AuthorSimilarity(c)
	if s == 0 || s == 1 {
		return s
	}
	return ps.WordOverlapFraction()
}

// EditSimilarity is EditSimilarity on the pair's raw values.
func (ps *PairScratch) EditSimilarity() float64 {
	return ps.editSimilarity(ps.a.raw, ps.b.raw)
}

// JaroWinkler is JaroWinkler on the pair's raw values.
func (ps *PairScratch) JaroWinkler() float64 {
	return ps.jaroWinkler(ps.a.raw, ps.b.raw)
}

// NeedlemanWunsch is NeedlemanWunsch on the pair's raw values.
func (ps *PairScratch) NeedlemanWunsch() float64 {
	return ps.needlemanWunsch(ps.a.raw, ps.b.raw)
}

// dpRows returns the scratch's two DP rows resized to n; their contents
// are stale.
func (ps *PairScratch) dpRows(n int) (prev, cur []int) {
	for i := range ps.rows {
		if cap(ps.rows[i]) < n {
			ps.rows[i] = make([]int, n)
		}
		ps.rows[i] = ps.rows[i][:n]
	}
	return ps.rows[0], ps.rows[1]
}

// matchFlags returns cleared match flags for strings of lengths na and
// nb.
func (ps *PairScratch) matchFlags(na, nb int) (aMatch, bMatch []bool) {
	if cap(ps.flags) < na+nb {
		ps.flags = make([]bool, na+nb)
	}
	f := ps.flags[:na+nb]
	clear(f)
	return f[:na:na], f[na:]
}
