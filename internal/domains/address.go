package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// The address predicates' thresholds (§6.1.3).
const (
	// addressNameWordOverlap is S1's fraction of common non-stop name
	// words: the paper's "greater than 0.7".
	addressNameWordOverlap = 0.7
	// addressAddrWordOverlap is S1's fraction of matching non-stop
	// address words: at least 0.6.
	addressAddrWordOverlap = 0.6
	// addressCommonWords is N1's number of common non-stop words in the
	// name+address concatenation: at least 4.
	addressCommonWords = 4
)

// Addresses builds the address domain of §6.1.3 with its single
// sufficient/necessary predicate level.
func Addresses(c *strsim.Corpus) Domain {
	stop := strsim.AddressStopWords
	cache := strsim.NewSharedCache(c)
	name := func(r *records.Record) string { return r.Field(datagen.FieldOwner) }
	addr := func(r *records.Record) string { return r.Field(datagen.FieldAddress) }

	// nonStop is a string's set of non-stop words as sorted interned
	// token ids, memoised per distinct string — by a concurrency-safe
	// memo, since predicates are bound and evaluated from worker pools.
	nonStop := strsim.NewMemo(func(s string) []int32 {
		return cache.InternTokens(stop.Filter(s))
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
				strsim.OverlapSortedIDs(a.name, b.name) > addressNameWordOverlap &&
				strsim.OverlapSortedIDs(a.addr, b.addr) >= addressAddrWordOverlap
		},
		func(r *records.Record) []string {
			return []string{keyf("a.s1", cache.SortedInitials(name(r)))}
		})

	// N1: at least 4 common non-stop words in the name+address
	// concatenation. Since 4 common words imply 2 common words, unordered
	// word-pair keys are complete and give much smaller buckets than
	// single-word keys. They also give the count filter: c common words
	// are c·(c−1)/2 shared pair keys, so a match shares at least
	// needPairs keys.
	const needPairs = addressCommonWords * (addressCommonWords - 1) / 2
	n1 := predicate.OfCounted("N1",
		func(r *records.Record) []int32 { return nonStop.Get(name(r) + " " + addr(r)) },
		func(a, b []int32) bool { return strsim.IntersectSortedIDs(a, b) >= addressCommonWords },
		func([]int32) int { return needPairs },
		func(r *records.Record) []string {
			ts := strsim.GetTokenScratch()
			defer ts.Release()
			toks := stop.FilterTokens(ts.Tokens(name(r) + " " + addr(r)))
			return wordPairKeys("a.n1|", toks)
		})

	return Domain{
		Name:     "addresses",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: AddressFeatures(c, stop),
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
			ps := strsim.GetPairScratch()
			defer ps.Release()
			v := make([]float64, len(names))
			ps.Set(a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner))
			v[0] = ps.JaccardGrams(3)
			v[1] = ps.InitialsJaccard()
			v[2] = ps.JaroWinkler()
			v[3] = ps.AuthorSimilarity(c)
			ps.Set(a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress))
			v[4] = ps.JaccardGrams(3)
			v[5] = ps.NonStopOverlap(stop)
			v[6] = fieldsEqual(a, b, datagen.FieldPin)
			return v
		},
	}
}
