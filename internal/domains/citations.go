package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// CitationOptions tunes the citation-domain predicates. Zero values take
// the defaults documented on each field.
type CitationOptions struct {
	// RareDFCap is the maximum document frequency for an author word to
	// count as "sufficiently rare" in S1 (the role of the paper's
	// "minimum IDF at least 13", with frequencies over *distinct* author
	// renderings — see domains.BuildDistinctCorpus). A prolific author
	// easily has dozens of distinct renderings of a genuinely rare
	// surname (every typo'd mention is a new distinct rendering), so the
	// cap must comfortably exceed that while staying below the distinct-
	// rendering counts of pool surnames. Default: 25 + corpusDocs/350.
	RareDFCap int
	// GramOverlap is the N1/N2 3-gram overlap fraction (default 0.6, the
	// paper's 60%).
	GramOverlap float64
	// CommonCoauthorWords is S2's required common co-author word count
	// (default 3).
	CommonCoauthorWords int
}

func (o *CitationOptions) defaults(corpusDocs int) {
	if o.RareDFCap <= 0 {
		o.RareDFCap = 25 + corpusDocs/350
	}
	if o.GramOverlap <= 0 {
		o.GramOverlap = 0.6
	}
	if o.CommonCoauthorWords <= 0 {
		o.CommonCoauthorWords = 3
	}
}

// Citations builds the citation domain of §6.1.1: two levels of
// sufficient/necessary predicates over the author (and co-author) fields,
// and the paper's similarity feature set for the final criterion P.
//
// The corpus must be built over the author field (see BuildCorpus); it
// supplies the IDF statistics for S1 and the custom similarities.
func Citations(c *strsim.Corpus, opts CitationOptions) Domain {
	opts.defaults(c.DocCount())
	rareIDF := rareWordIDFThreshold(c, opts.RareDFCap)
	overlap, coWords := opts.GramOverlap, opts.CommonCoauthorWords
	cache := strsim.NewSharedCache(c)

	author := func(r *records.Record) string { return r.Field(datagen.FieldAuthor) }
	coauth := func(r *records.Record) string { return r.Field(datagen.FieldCoauthors) }

	// citName is what S1 and S2 read from one author rendering beyond
	// what the cache already memoises, computed once per distinct string:
	// the last token, and the content-token key when the name is
	// "sufficiently rare" — the minimum IDF over the name's *content*
	// words (single-letter initials are structural, not evidence of
	// identity) clears the rarity threshold — else "". The IDF lookup
	// goes to the corpus directly: this memo already makes it once per
	// rendering, and the cache's MinIDF memo would pin every non-rare
	// content key as well.
	type citName struct{ last, rareContent string }
	nameOf := strsim.NewMemo(func(name string) citName {
		n := citName{last: lastToken(name)}
		if content := contentTokensKey(name); content != "" && c.MinIDF(content) >= rareIDF {
			n.rareContent = content
		}
		return n
	})

	// S1: the names must be sufficiently rare and match exactly up to
	// word order and initialing — initials match exactly, both names are
	// rare, and the content tokens agree as multisets. The multiset
	// condition makes the predicate sound on synthetic corpora, where
	// "rare" is a weaker signal than in a 240k-record crawl: bare
	// initials-plus-rarity would merge any two rare names sharing an
	// initials multiset.
	type s1Sig struct{ initials, rareContent string }
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig {
			name := author(r)
			return s1Sig{cache.SortedInitials(name), nameOf.Get(name).rareContent}
		},
		func(a, b s1Sig) bool {
			return a.rareContent != "" && a.rareContent == b.rareContent && a.initials == b.initials
		},
		// Records whose content words are not all rare can never satisfy
		// S1, so they get no key at all; the rest key on initials plus
		// content tokens (complete: S1-true pairs agree on both).
		func(r *records.Record) []string {
			name := author(r)
			content := nameOf.Get(name).rareContent
			if content == "" {
				return nil
			}
			return []string{keyf("c.s1", cache.SortedInitials(name), content)}
		})

	// S2: initials match exactly, at least three common co-author words,
	// and the last names match.
	type s2Sig struct {
		initials, last string
		coauthors      []int32 // sorted interned token ids
	}
	s2 := predicate.Of("S2",
		func(r *records.Record) s2Sig {
			name := author(r)
			return s2Sig{cache.SortedInitials(name), nameOf.Get(name).last, cache.TokenIDs(coauth(r))}
		},
		func(a, b s2Sig) bool {
			return a.last != "" && a.last == b.last && a.initials == b.initials &&
				strsim.IntersectSortedIDs(a.coauthors, b.coauthors) >= coWords
		},
		// S2-true pairs share >= 3 coauthor words, hence at least one
		// unordered coauthor word pair — so (initials, last, word-pair)
		// keys are complete and give far smaller buckets than
		// (initials, last) alone.
		func(r *records.Record) []string {
			name := author(r)
			last := nameOf.Get(name).last
			if last == "" {
				return nil
			}
			ts := strsim.GetTokenScratch()
			defer ts.Release()
			toks := ts.Tokens(coauth(r))
			prefix := keyf("c.s2", cache.SortedInitials(name), last) + "\x1f"
			return wordPairKeys(prefix, toks)
		})

	// N1: common author 3-grams exceed 60% of the smaller gram set.
	n1 := gramOverlapAbove("N1", cache, author, overlap, "c.n1")

	// N2: N1 plus at least one common initial.
	type n2Sig struct {
		grams   []int32
		letters uint32 // initial-letter mask
	}
	n2 := predicate.OfCounted("N2",
		func(r *records.Record) n2Sig {
			return n2Sig{cache.GramIDs(author(r)), cache.InitialLetters(author(r))}
		},
		func(a, b n2Sig) bool {
			return a.letters&b.letters != 0 && strsim.OverlapExceeds(a.grams, b.grams, overlap, true)
		},
		// Keys are the author grams: shared keys = common grams.
		func(a, b n2Sig, shared int) bool {
			return a.letters&b.letters != 0 &&
				strsim.OverlapCountClears(shared, min(len(a.grams), len(b.grams)), overlap, true)
		},
		func(r *records.Record) []string { return gramKeys(cache, "c.n2", author(r)) })

	return Domain{
		Name: "citations",
		Levels: []predicate.Level{
			{Sufficient: s1, Necessary: n1},
			{Sufficient: s2, Necessary: n2},
		},
		Features: CitationFeatures(c),
	}
}

// CitationFeatures is the paper's similarity function list for the final
// citation predicate: Jaccard and overlap on 3-grams and initials of the
// author and co-author fields, JaroWinkler on the author, and the custom
// author and co-author similarities of §6.1.1.
func CitationFeatures(c *strsim.Corpus) FeatureSet {
	names := []string{
		"author.jaccard3gram",
		"author.overlap3gram",
		"author.initialsJaccard",
		"author.jarowinkler",
		"author.custom",
		"coauthor.jaccardTokens",
		"coauthor.custom",
		"year.equal",
	}
	return FeatureSet{
		Names: names,
		Vec: func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor)
			ca, cb := a.Field(datagen.FieldCoauthors), b.Field(datagen.FieldCoauthors)
			yearEq := 0.0
			if a.Field(datagen.FieldYear) != "" && a.Field(datagen.FieldYear) == b.Field(datagen.FieldYear) {
				yearEq = 1
			}
			return []float64{
				strsim.JaccardGrams(na, nb, 3),
				strsim.GramOverlapRatio(na, nb, 3),
				initialsJaccard(na, nb),
				strsim.JaroWinkler(na, nb),
				strsim.AuthorSimilarity(c, na, nb),
				strsim.JaccardTokens(ca, cb),
				strsim.CoauthorSimilarity(c, ca, cb),
				yearEq,
			}
		},
	}
}

func initialsJaccard(a, b string) float64 {
	sa := make(map[string]struct{})
	for _, t := range strsim.Tokenize(a) {
		sa[t[:1]] = struct{}{}
	}
	sb := make(map[string]struct{})
	for _, t := range strsim.Tokenize(b) {
		sb[t[:1]] = struct{}{}
	}
	return strsim.Jaccard(sa, sb)
}
