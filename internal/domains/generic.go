package domains

import (
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// Generic builds a schema-agnostic predicate schedule and pairwise
// scorer around one primary field, for datasets with no trained domain:
// the sufficient predicate is exact token-normalised equality of the
// field, the necessary predicate is 3-gram overlap above the given
// threshold, and the scorer is an untrained similarity blend (mean of
// Jaccard-3gram and Jaro-Winkler, shifted so ~0.55 similarity is the
// decision line). This is the domain dedupcli has always used; topkd
// serves it too, so both binaries answer identically on the same data.
//
// The returned predicates and scorer share one strsim.NewSharedCache
// and are safe for concurrent evaluation (Workers != 1, concurrent
// server queries).
func Generic(field string, overlap float64) ([]predicate.Level, func(a, b *records.Record) float64) {
	cache := strsim.NewSharedCache(nil)
	val := func(rec *records.Record) string { return rec.Field(field) }

	tokensKey := strsim.NewMemo(sortedTokensKey)
	sKeys, sIDs := valueKey(val, func(v string) string { return "s:" + tokensKey.Get(v) })
	s := predicate.Of("S-exact",
		func(rec *records.Record) string { return tokensKey.Get(val(rec)) },
		func(a, b string) bool { return a != "" && a == b },
		sKeys).WithKeyIDs(sIDs)
	n := gramOverlapAbove("N-grams", cache, val, overlap)
	scorer := func(a, b *records.Record) float64 {
		sim := 0.5*cache.JaccardGrams(val(a), val(b)) + 0.5*strsim.JaroWinkler(val(a), val(b))
		return 6 * (sim - 0.55)
	}
	return []predicate.Level{{Sufficient: s, Necessary: n}}, scorer
}
