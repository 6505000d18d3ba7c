package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// Restaurants builds a domain for the Figure-7 Restaurant benchmark: a
// single predicate level (name-gram canopy plus a strict sufficient
// predicate) and a feature set over name/address/city/cuisine.
func Restaurants(c *strsim.Corpus) Domain {
	cache := strsim.NewSharedCache(c)
	tokensKey := strsim.NewMemo(sortedTokensKey)
	name := func(r *records.Record) string { return r.Field(datagen.FieldOwner) }
	addr := func(r *records.Record) string { return r.Field(datagen.FieldAddress) }
	city := func(r *records.Record) string { return r.Field(datagen.FieldCity) }

	type s1Sig struct{ name, addr, city string }
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig {
			return s1Sig{tokensKey.Get(name(r)), tokensKey.Get(addr(r)), city(r)}
		},
		func(a, b s1Sig) bool { return a == b },
		func(r *records.Record) []string {
			return []string{keyf("r.s1", tokensKey.Get(name(r)), tokensKey.Get(addr(r)), city(r))}
		})

	n1 := gramOverlapAbove("N1", cache, name, 0.4, "r.n1")

	return Domain{
		Name:     "restaurant",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: RestaurantFeatures(c),
	}
}

// RestaurantFeatures is a similarity feature set for restaurant records.
func RestaurantFeatures(c *strsim.Corpus) FeatureSet {
	names := []string{
		"name.jaccard3gram",
		"name.jarowinkler",
		"name.tfidf",
		"addr.jaccardTokens",
		"city.equal",
		"cuisine.equal",
	}
	return FeatureSet{
		Names: names,
		Vec: func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner)
			eq := func(f string) float64 {
				if a.Field(f) != "" && a.Field(f) == b.Field(f) {
					return 1
				}
				return 0
			}
			return []float64{
				strsim.JaccardGrams(na, nb, 3),
				strsim.JaroWinkler(na, nb),
				c.TFIDFCosine(na, nb),
				strsim.JaccardTokens(a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress)),
				eq(datagen.FieldCity),
				eq(datagen.FieldCuisine),
			}
		},
	}
}

// AuthorsOnly builds a domain for the Figure-7 Authors benchmark: records
// holding a single author-name field.
func AuthorsOnly(c *strsim.Corpus) Domain {
	cache := strsim.NewSharedCache(c)
	name := func(r *records.Record) string { return r.Field(datagen.FieldAuthor) }

	// Exact token-multiset equality is NOT sufficient for bare author
	// names: two entities can both render as "s. sarawagi". Only full
	// names (no single-letter initials) matching exactly is safe
	// (strsim.FullNamesEqual). The signature is the name's sorted-token
	// key, or "" for a name that has an initial or no token at all and so
	// can never satisfy S1.
	fullNameKey := strsim.NewMemo(func(n string) string {
		if hasInitialToken(n) {
			return ""
		}
		return sortedTokensKey(n)
	})
	s1 := predicate.Of("S1",
		func(r *records.Record) string { return fullNameKey.Get(name(r)) },
		func(a, b string) bool { return a != "" && a == b },
		func(r *records.Record) []string {
			k := fullNameKey.Get(name(r))
			if k == "" {
				return nil // can never satisfy S1
			}
			return []string{keyf("au.s1", k)}
		})
	n1 := gramOverlapAbove("N1", cache, name, 0.3, "au.n1")
	return Domain{
		Name:     "authors",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: AuthorOnlyFeatures(c),
	}
}

// AuthorOnlyFeatures scores single-field author-name pairs.
func AuthorOnlyFeatures(c *strsim.Corpus) FeatureSet {
	names := []string{
		"author.jaccard3gram",
		"author.overlap3gram",
		"author.initialsJaccard",
		"author.jarowinkler",
		"author.custom",
		"author.tfidf",
		"author.mongeelkan",
		"author.softtfidf",
	}
	return FeatureSet{
		Names: names,
		Vec: func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor)
			return []float64{
				strsim.JaccardGrams(na, nb, 3),
				strsim.GramOverlapRatio(na, nb, 3),
				initialsJaccard(na, nb),
				strsim.JaroWinkler(na, nb),
				strsim.AuthorSimilarity(c, na, nb),
				c.TFIDFCosine(na, nb),
				strsim.MongeElkan(na, nb, nil),
				c.SoftTFIDF(na, nb, nil, 0.9),
			}
		},
	}
}

// GetoorDomain builds a domain for the Figure-7 Getoor benchmark
// (author + title records).
func GetoorDomain(c *strsim.Corpus) Domain {
	cache := strsim.NewSharedCache(c)
	name := func(r *records.Record) string { return r.Field(datagen.FieldAuthor) }
	title := func(r *records.Record) string { return r.Field(datagen.FieldTitle) }

	tokensKey := strsim.NewMemo(sortedTokensKey)
	type s1Sig struct{ name, title string }
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig { return s1Sig{tokensKey.Get(name(r)), tokensKey.Get(title(r))} },
		func(a, b s1Sig) bool { return a == b },
		func(r *records.Record) []string {
			return []string{keyf("g.s1", tokensKey.Get(name(r)), tokensKey.Get(title(r)))}
		})
	n1 := gramOverlapAbove("N1", cache, name, 0.3, "g.n1")
	feats := FeatureSet{
		Names: []string{
			"author.jaccard3gram",
			"author.jarowinkler",
			"author.custom",
			"title.jaccardTokens",
			"title.tfidf",
		},
		Vec: func(a, b *records.Record) []float64 {
			na, nb := name(a), name(b)
			ta, tb := title(a), title(b)
			return []float64{
				strsim.JaccardGrams(na, nb, 3),
				strsim.JaroWinkler(na, nb),
				strsim.AuthorSimilarity(c, na, nb),
				strsim.JaccardTokens(ta, tb),
				c.TFIDFCosine(ta, tb),
			}
		},
	}
	return Domain{
		Name:     "getoor",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: feats,
	}
}
