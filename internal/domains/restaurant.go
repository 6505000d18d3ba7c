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

	n1 := gramOverlapAbove("N1", cache, name, 0.4)

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
			ps := strsim.GetPairScratch()
			defer ps.Release()
			v := make([]float64, len(names))
			ps.Set(a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner))
			v[0] = ps.JaccardGrams(3)
			v[1] = ps.JaroWinkler()
			v[2] = ps.TFIDFCosine(c)
			ps.Set(a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress))
			v[3] = ps.JaccardTokens()
			v[4] = fieldsEqual(a, b, datagen.FieldCity)
			v[5] = fieldsEqual(a, b, datagen.FieldCuisine)
			return v
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
	n1 := gramOverlapAbove("N1", cache, name, 0.3)
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
			ps := strsim.GetPairScratch()
			defer ps.Release()
			ps.Set(a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor))
			return []float64{
				ps.JaccardGrams(3),
				ps.GramOverlapRatio(3),
				ps.InitialsJaccard(),
				ps.JaroWinkler(),
				ps.AuthorSimilarity(c),
				ps.TFIDFCosine(c),
				ps.MongeElkan(nil),
				ps.SoftTFIDF(c, nil, 0.9),
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
	n1 := gramOverlapAbove("N1", cache, name, 0.3)
	feats := FeatureSet{
		Names: []string{
			"author.jaccard3gram",
			"author.jarowinkler",
			"author.custom",
			"title.jaccardTokens",
			"title.tfidf",
		},
		Vec: func(a, b *records.Record) []float64 {
			ps := strsim.GetPairScratch()
			defer ps.Release()
			v := make([]float64, 5)
			ps.Set(name(a), name(b))
			v[0] = ps.JaccardGrams(3)
			v[1] = ps.JaroWinkler()
			v[2] = ps.AuthorSimilarity(c)
			ps.Set(title(a), title(b))
			v[3] = ps.JaccardTokens()
			v[4] = ps.TFIDFCosine(c)
			return v
		},
	}
	return Domain{
		Name:     "getoor",
		Levels:   []predicate.Level{{Sufficient: s1, Necessary: n1}},
		Features: feats,
	}
}
