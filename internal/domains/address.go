package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// AddressOptions tunes the address-domain predicates.
type AddressOptions struct {
	// NameWordOverlap is S1's required fraction of common non-stop name
	// words (default 0.7, the paper's "greater than 0.7").
	NameWordOverlap float64
	// AddrWordOverlap is S1's required fraction of matching non-stop
	// address words (default 0.6).
	AddrWordOverlap float64
	// CommonWords is N1's required number of common non-stop words in the
	// name+address concatenation (default 4).
	CommonWords int
	// StopWords used for the non-stop filters (default
	// strsim.AddressStopWords).
	StopWords strsim.StopWords
}

func (o *AddressOptions) defaults() {
	if o.NameWordOverlap <= 0 {
		o.NameWordOverlap = 0.7
	}
	if o.AddrWordOverlap <= 0 {
		o.AddrWordOverlap = 0.6
	}
	if o.CommonWords <= 0 {
		o.CommonWords = 4
	}
	if o.StopWords == nil {
		o.StopWords = strsim.AddressStopWords
	}
}

// Addresses builds the address domain of §6.1.3 with its single
// sufficient/necessary predicate level.
func Addresses(c *strsim.Corpus, opts AddressOptions) Domain {
	opts.defaults()
	nameOverlap, addrOverlap, commonWords := opts.NameWordOverlap, opts.AddrWordOverlap, opts.CommonWords
	cache := strsim.NewSharedCache(c)
	name := func(r *records.Record) string { return r.Field(datagen.FieldOwner) }
	addr := func(r *records.Record) string { return r.Field(datagen.FieldAddress) }

	// nonStop is a string's set of non-stop words as sorted interned
	// token ids, memoised per distinct string — by a concurrency-safe
	// memo, since predicates are bound and evaluated from worker pools.
	nonStop := strsim.NewMemo(func(s string) []int32 {
		return cache.InternTokens(opts.StopWords.Filter(s))
	})

	// S1: initials of names match exactly, > 0.7 common non-stop name
	// words, and >= 0.6 matching non-stop address words.
	type s1Sig struct {
		initials   string
		name, addr []int32 // non-stop word ids
	}
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig {
			return s1Sig{cache.SortedInitials(name(r)), nonStop.Get(name(r)), nonStop.Get(addr(r))}
		},
		func(a, b s1Sig) bool {
			return a.initials == b.initials &&
				strsim.OverlapSortedIDs(a.name, b.name) > nameOverlap &&
				strsim.OverlapSortedIDs(a.addr, b.addr) >= addrOverlap
		},
		func(r *records.Record) []string {
			return []string{keyf("a.s1", cache.SortedInitials(name(r)))}
		})

	// N1: at least 4 common non-stop words in the name+address
	// concatenation. Since 4 common words imply 2 common words, unordered
	// word-pair keys are complete and give much smaller buckets than
	// single-word keys. They also carry the verdict: c common words are
	// c·(c−1)/2 shared pair keys, increasing in c, so "at least
	// commonWords common words" is "at least that many shared keys".
	needPairs := commonWords * (commonWords - 1) / 2
	n1 := predicate.OfCounted("N1",
		func(r *records.Record) []int32 { return nonStop.Get(name(r) + " " + addr(r)) },
		func(a, b []int32) bool { return strsim.IntersectSortedIDs(a, b) >= commonWords },
		func(_, _ []int32, shared int) bool { return shared >= needPairs },
		func(r *records.Record) []string {
			ts := strsim.GetTokenScratch()
			defer ts.Release()
			toks := opts.StopWords.FilterTokens(ts.Tokens(name(r) + " " + addr(r)))
			return wordPairKeys("a.n1|", toks)
		})

	return Domain{
		Name:     "addresses",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: AddressFeatures(c, opts.StopWords),
	}
}

// AddressFeatures is the paper's similarity list for the final address
// predicate: Jaccard on name and address with 3-grams and initials,
// JaroWinkler on the name, fraction of common non-stop address words,
// pincode match, and the custom author similarity applied to owner names.
func AddressFeatures(c *strsim.Corpus, stop strsim.StopWords) FeatureSet {
	if stop == nil {
		stop = strsim.AddressStopWords
	}
	names := []string{
		"name.jaccard3gram",
		"name.initialsJaccard",
		"name.jarowinkler",
		"name.custom",
		"addr.jaccard3gram",
		"addr.nonstopOverlap",
		"pin.equal",
	}
	return FeatureSet{
		Names: names,
		Vec: func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner)
			aa, ab := a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress)
			pinEq := 0.0
			if a.Field(datagen.FieldPin) != "" && a.Field(datagen.FieldPin) == b.Field(datagen.FieldPin) {
				pinEq = 1
			}
			fa := make(map[string]struct{})
			for _, t := range stop.Filter(aa) {
				fa[t] = struct{}{}
			}
			fb := make(map[string]struct{})
			for _, t := range stop.Filter(ab) {
				fb[t] = struct{}{}
			}
			return []float64{
				strsim.JaccardGrams(na, nb, 3),
				initialsJaccard(na, nb),
				strsim.JaroWinkler(na, nb),
				strsim.AuthorSimilarity(c, na, nb),
				strsim.JaccardGrams(aa, ab, 3),
				strsim.Overlap(fa, fb),
				pinEq,
			}
		},
	}
}
