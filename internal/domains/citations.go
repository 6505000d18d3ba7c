package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// CitationOptions is empty: every citation threshold is a constant of
// the paper's (see below). The type stays because callers built against
// the options form pass CitationOptions{}.
type CitationOptions struct{}

// The citation predicates' thresholds (§6.1.1).
const (
	// citationGramOverlap is N1's and N2's author 3-gram overlap: common
	// grams exceed the paper's 60 % of the smaller gram set.
	citationGramOverlap = 0.6
	// citationCoauthorWords is S2's "at least three common co-author
	// words".
	citationCoauthorWords = 3
)

// citationRareDFCap is the maximum document frequency for an author word
// to count as "sufficiently rare" in S1 — the role of the paper's
// "minimum IDF at least 13", with frequencies over *distinct* author
// renderings (see domains.BuildDistinctCorpus). A prolific author easily
// has dozens of distinct renderings of a genuinely rare surname (every
// typo'd mention is a new distinct rendering), so the cap must
// comfortably exceed that while staying below the distinct-rendering
// counts of pool surnames; it grows with the corpus.
func citationRareDFCap(corpusDocs int) int { return 25 + corpusDocs/350 }

// Citations builds the citation domain of §6.1.1: two levels of
// sufficient/necessary predicates over the author (and co-author) fields,
// and the paper's similarity feature set for the final criterion P.
//
// The corpus must be built over the author field (see BuildCorpus); it
// supplies the IDF statistics for S1 and the custom similarities.
func Citations(c *strsim.Corpus, _ CitationOptions) Domain {
	rareIDF := rareWordIDFThreshold(c, citationRareDFCap(c.DocCount()))
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
	// Records whose content words are not all rare can never satisfy S1,
	// so they get no key at all; the rest key on initials plus content
	// tokens (complete: S1-true pairs agree on both). The key is one
	// function of the author rendering, so Block reads its id.
	s1Keys, s1IDs := valueKey(author, func(name string) string {
		content := nameOf.Get(name).rareContent
		if content == "" {
			return ""
		}
		return keyf("c.s1", cache.SortedInitials(name), content)
	})
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig {
			name := author(r)
			return s1Sig{cache.SortedInitials(name), nameOf.Get(name).rareContent}
		},
		func(a, b s1Sig) bool {
			return a.rareContent != "" && a.rareContent == b.rareContent && a.initials == b.initials
		},
		s1Keys).WithKeyIDs(s1IDs)

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
				strsim.IntersectSortedIDs(a.coauthors, b.coauthors) >= citationCoauthorWords
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
	n1 := gramOverlapAbove("N1", cache, author, citationGramOverlap)

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
			return a.letters&b.letters != 0 && strsim.OverlapExceeds(a.grams, b.grams, citationGramOverlap, true)
		},
		// Keys are the author grams: shared keys = common grams.
		func(a n2Sig) int { return strsim.OverlapNeed(len(a.grams), citationGramOverlap, true) },
		func(r *records.Record) []string { return gramKeys(cache, author(r)) }).
		WithKeyIDs(gramKeyIDs(cache, author))

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
			ps := strsim.GetPairScratch()
			defer ps.Release()
			v := make([]float64, len(names))
			ps.Set(a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor))
			v[0] = ps.JaccardGrams(3)
			v[1] = ps.GramOverlapRatio(3)
			v[2] = ps.InitialsJaccard()
			v[3] = ps.JaroWinkler()
			v[4] = ps.AuthorSimilarity(c)
			ps.Set(a.Field(datagen.FieldCoauthors), b.Field(datagen.FieldCoauthors))
			v[5] = ps.JaccardTokens()
			v[6] = ps.CoauthorSimilarity(c)
			v[7] = fieldsEqual(a, b, datagen.FieldYear)
			return v
		},
	}
}
