// Package domains wires the generic predicate and classifier frameworks to
// the paper's three evaluation domains (§6.1): the Citation, Students, and
// Address datasets, plus the small Restaurant/Authors/Getoor benchmarks of
// Figure 7. For each domain it provides the exact sufficient/necessary
// predicate schedule the paper describes and the similarity feature set of
// the final learned criterion P.
package domains

import (
	"math"
	"sort"
	"strings"

	"topkdedup/internal/intern"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// Domain bundles everything PrunedDedup needs to run on one dataset
// family.
type Domain struct {
	// Name of the domain ("citations", "students", ...).
	Name string
	// Levels is the (S_l, N_l) schedule in increasing cost/tightness.
	Levels []predicate.Level
	// Features is the similarity feature set of the final criterion P.
	Features FeatureSet
}

// FeatureSet mirrors classifier.FeatureSet without importing it (domains
// stays importable from the classifier tests).
type FeatureSet struct {
	Names []string
	Vec   func(a, b *records.Record) []float64
}

// BuildCorpus accumulates IDF statistics over the given fields of the
// dataset — one "document" per record per field.
func BuildCorpus(d *records.Dataset, fields ...string) *strsim.Corpus {
	c := strsim.NewCorpus()
	for _, r := range d.Recs {
		for _, f := range fields {
			c.AddDoc(r.Field(f))
		}
	}
	c.Freeze()
	return c
}

// BuildDistinctCorpus accumulates IDF statistics over the *distinct*
// values of the given fields — one document per distinct string. This is
// the right notion of rarity for the citation S1 predicate: a prolific
// author's surname appears in thousands of records but in only a handful
// of distinct name renderings, and it is the name, not the mention count,
// that must be rare for exact-initials matching to be safe.
func BuildDistinctCorpus(d *records.Dataset, fields ...string) *strsim.Corpus {
	c := strsim.NewCorpus()
	seen := make(map[string]struct{})
	for _, r := range d.Recs {
		for _, f := range fields {
			v := r.Field(f)
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			c.AddDoc(v)
		}
	}
	c.Freeze()
	return c
}

// rareWordIDFThreshold returns the IDF value a token must reach to count
// as "sufficiently rare": a document frequency of at most dfCap. This
// plays the role of the paper's absolute "IDF at least 13" bound, whose
// scale depends on corpus size and log base.
func rareWordIDFThreshold(c *strsim.Corpus, dfCap int) float64 {
	if dfCap < 1 {
		dfCap = 1
	}
	// IDF is monotonically decreasing in df; a token with df == dfCap has
	// IDF log((1+N)/(1+dfCap)) + 1, so requiring IDF >= that admits
	// exactly df <= dfCap.
	return idfOfDF(c, dfCap)
}

func idfOfDF(c *strsim.Corpus, df int) float64 {
	// Same smoothed-IDF formula as strsim.Corpus (kept in sync).
	return math.Log(float64(1+c.DocCount())/float64(1+df)) + 1
}

// sortedTokensKey returns the record's tokens of a field, sorted and
// joined — an exact-match blocking key insensitive to order and case.
func sortedTokensKey(value string) string {
	ts := strsim.GetTokenScratch()
	defer ts.Release()
	toks := ts.Tokens(value)
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

// gramKeys returns one blocking key per 3-gram of the value: the
// cache's sorted gram list. Sorted, so the keys come out in the same
// order on every call — ranging the gram map instead would feed the
// downstream interned indexes in a different order each run. No prefix
// marks them as grams: an index holds one predicate's keys, never two.
func gramKeys(cache *strsim.Cache, value string) []string {
	return cache.SortedGrams(value)
}

// gramKeyIDs is gramKeys' id form (predicate.P.WithKeyIDs): the cache's
// memoised gram ids of the field, in gramKeys' order.
func gramKeyIDs(cache *strsim.Cache, field func(*records.Record) string) func([]uint32, *records.Record) []uint32 {
	return func(dst []uint32, r *records.Record) []uint32 {
		return append(dst, cache.GramKeyIDs(field(r))...)
	}
}

// valueKey gives both forms of a predicate's blocking key when the key
// is one function of one field value: key maps the value to its one key
// text ("" for no key). keys returns the text; ids appends its id from
// an intern table of the predicate's, minted on first sight and
// memoised per distinct value, so an index build hashes the field value
// and builds no text. Only Block reads ids: the memo is filled by index
// builds, never by Eval or Keys.
func valueKey(field func(*records.Record) string, key func(value string) string) (keys func(*records.Record) []string, ids func([]uint32, *records.Record) []uint32) {
	tab := intern.New()
	id := strsim.NewMemo(func(v string) int64 {
		if k := key(v); k != "" {
			return int64(tab.Intern(k))
		}
		return -1
	})
	keys = func(r *records.Record) []string {
		if k := key(field(r)); k != "" {
			return []string{k}
		}
		return nil
	}
	ids = func(dst []uint32, r *records.Record) []uint32 {
		if i := id.Get(field(r)); i >= 0 {
			dst = append(dst, uint32(i))
		}
		return dst
	}
	return keys, ids
}

// gramOverlapAbove is the single-field necessary predicate several
// domains share: the field's 3-gram overlap ratio strictly exceeds thr,
// blocked on one key per gram (which Block reads as the cache's gram
// ids). The signature is the field's sorted interned gram ids. The keys
// are the grams themselves, so the keys a pair shares are its common
// grams, and a match shares at least the count that clears thr against
// the smaller gram set: the count filter (predicate.OfCounted) is
// strsim.OverlapNeed of the set's size.
func gramOverlapAbove(name string, cache *strsim.Cache, field func(*records.Record) string, thr float64) predicate.P {
	return predicate.OfCounted(name,
		func(r *records.Record) []int32 { return cache.GramIDs(field(r)) },
		func(a, b []int32) bool { return strsim.OverlapExceeds(a, b, thr, true) },
		func(a []int32) int { return strsim.OverlapNeed(len(a), thr, true) },
		func(r *records.Record) []string { return gramKeys(cache, field(r)) }).
		WithKeyIDs(gramKeyIDs(cache, field))
}

// wordPairKeys returns one key per unordered pair of distinct non-stop
// tokens of the value. For predicates requiring at least two common words,
// pair keys are complete and give far smaller buckets than single-word
// keys. The token slice is sorted and deduplicated in place (callers pass
// freshly tokenised or scratch-owned slices).
func wordPairKeys(prefix string, tokens []string) []string {
	sort.Strings(tokens)
	uniq := tokens[:0]
	for _, t := range tokens {
		if n := len(uniq); n > 0 && uniq[n-1] == t {
			continue
		}
		uniq = append(uniq, t)
	}
	var keys []string
	for i := 0; i < len(uniq); i++ {
		for j := i + 1; j < len(uniq); j++ {
			keys = append(keys, prefix+uniq[i]+"|"+uniq[j])
		}
	}
	return keys
}

// contentTokensKey returns the sorted multiset of the value's non-initial
// tokens (length > 1) joined with spaces — the "content" of a name with
// abbreviations and word order factored out.
func contentTokensKey(value string) string {
	ts := strsim.GetTokenScratch()
	defer ts.Release()
	toks := ts.Tokens(value)
	content := toks[:0]
	for _, t := range toks {
		if len(t) > 1 {
			content = append(content, t)
		}
	}
	sort.Strings(content)
	return strings.Join(content, " ")
}

// hasInitialToken reports whether any token of the value is a single
// letter (an abbreviated name part).
func hasInitialToken(value string) bool {
	ts := strsim.GetTokenScratch()
	defer ts.Release()
	for _, t := range ts.Tokens(value) {
		if len(t) == 1 {
			return true
		}
	}
	return false
}

func lastToken(value string) string {
	ts := strsim.GetTokenScratch()
	defer ts.Release()
	toks := ts.Tokens(value)
	if len(toks) == 0 {
		return ""
	}
	return toks[len(toks)-1]
}

func keyf(parts ...string) string { return strings.Join(parts, "\x1f") }

// fieldsEqual is the 0/1 feature "field f is non-empty and equal on both
// records".
func fieldsEqual(a, b *records.Record, f string) float64 {
	if a.Field(f) != "" && a.Field(f) == b.Field(f) {
		return 1
	}
	return 0
}
