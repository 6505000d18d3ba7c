package domains

import (
	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// StudentOptions is empty: both students thresholds are constants of
// the paper's (see below). The type stays because callers built against
// the options form pass StudentOptions{}.
type StudentOptions struct{}

// The students predicates' name 3-gram overlaps (§6.1.2).
const (
	// studentS2GramOverlap is S2's: the paper's 90 %.
	studentS2GramOverlap = 0.9
	// studentN2GramOverlap is N2's: the paper's 50 %.
	studentN2GramOverlap = 0.5
)

// Students builds the students domain of §6.1.2. Class and school code are
// assumed reliable (the paper: "other fields like the school code and
// class code are believed to be correct"); names and birth dates carry
// entry errors.
func Students(_ StudentOptions) Domain {
	cache := strsim.NewSharedCache(nil)
	nameKey := strsim.NewMemo(sortedTokensKey)
	name := func(r *records.Record) string { return r.Field(datagen.FieldName) }
	class := func(r *records.Record) string { return r.Field(datagen.FieldClass) }
	school := func(r *records.Record) string { return r.Field(datagen.FieldSchool) }
	dob := func(r *records.Record) string { return r.Field(datagen.FieldBirthdate) }

	// S1: student name, class, school code, and birth date all match
	// exactly (token-normalised).
	type s1Sig struct{ name, class, school, dob string }
	s1 := predicate.Of("S1",
		func(r *records.Record) s1Sig {
			return s1Sig{nameKey.Get(name(r)), class(r), school(r), dob(r)}
		},
		func(a, b s1Sig) bool { return a == b },
		func(r *records.Record) []string {
			return []string{keyf("st.s1", nameKey.Get(name(r)), class(r), school(r), dob(r))}
		})

	// S2: like S1 but instead of exact name match it requires >= 90%
	// overlap in the 3-grams of the name field.
	type s2Sig struct {
		class, school, dob string
		grams              []int32 // sorted interned name 3-gram ids
	}
	s2 := predicate.Of("S2",
		func(r *records.Record) s2Sig {
			return s2Sig{class(r), school(r), dob(r), cache.GramIDs(name(r))}
		},
		func(a, b s2Sig) bool {
			return a.class == b.class && a.school == b.school && a.dob == b.dob &&
				strsim.OverlapExceeds(a.grams, b.grams, studentS2GramOverlap, false)
		},
		func(r *records.Record) []string {
			return []string{keyf("st.s2", class(r), school(r), dob(r))}
		})

	// N1: at least one common initial in the name and matching class and
	// school code. No count filter (predicate.OfCounted): a match shares
	// one initial, hence one key, and one shared key is what every
	// candidate has.
	type n1Sig struct {
		class, school string
		letters       uint32 // initial-letter mask
	}
	n1 := predicate.Of("N1",
		func(r *records.Record) n1Sig {
			return n1Sig{class(r), school(r), cache.InitialLetters(name(r))}
		},
		func(a, b n1Sig) bool {
			return a.class == b.class && a.school == b.school && a.letters&b.letters != 0
		},
		func(r *records.Record) []string {
			ts := strsim.GetTokenScratch()
			defer ts.Release()
			toks := ts.Tokens(name(r))
			var seen [256]bool
			keys := make([]string, 0, len(toks))
			for _, t := range toks {
				ini := t[0]
				if seen[ini] {
					continue
				}
				seen[ini] = true
				keys = append(keys, keyf("st.n1", string(ini), class(r), school(r)))
			}
			return keys
		})

	// N2: >= 50% common name 3-grams and exact school and class match.
	type n2Sig struct {
		class, school string
		grams         []int32
	}
	n2 := predicate.OfCounted("N2",
		func(r *records.Record) n2Sig {
			return n2Sig{class(r), school(r), cache.GramIDs(name(r))}
		},
		func(a, b n2Sig) bool {
			return a.class == b.class && a.school == b.school &&
				strsim.OverlapExceeds(a.grams, b.grams, studentN2GramOverlap, false)
		},
		// Each key is one name gram under the record's class and school,
		// so for a pair that agrees on both, shared keys = common grams.
		func(a n2Sig) int { return strsim.OverlapNeed(len(a.grams), studentN2GramOverlap, false) },
		func(r *records.Record) []string {
			// The sorted gram list, not the gram map: see gramKeys. The
			// list is the call's own, so the keys overwrite it.
			keys := cache.SortedGrams(name(r))
			for i, g := range keys {
				keys[i] = keyf("st.n2", g, class(r), school(r))
			}
			return keys
		})

	return Domain{
		Name: "students",
		Levels: []predicate.Level{
			{Sufficient: s1, Necessary: n1},
			{Sufficient: s2, Necessary: n2},
		},
		Features: StudentFeatures(),
	}
}

// StudentFeatures is a similarity feature set for the students domain.
// The paper skipped the final clustering step here for lack of labelled
// data; our generator retains ground truth, so the full pipeline can run.
func StudentFeatures() FeatureSet {
	names := []string{
		"name.jaccard3gram",
		"name.overlap3gram",
		"name.jarowinkler",
		"name.editsim",
		"name.needlemanwunsch",
		"dob.equal",
		"class.equal",
		"school.equal",
	}
	return FeatureSet{
		Names: names,
		Vec: func(a, b *records.Record) []float64 {
			ps := strsim.GetPairScratch()
			defer ps.Release()
			v := make([]float64, len(names))
			ps.Set(a.Field(datagen.FieldName), b.Field(datagen.FieldName))
			v[0] = ps.JaccardGrams(3)
			v[1] = ps.GramOverlapRatio(3)
			v[2] = ps.JaroWinkler()
			v[3] = ps.EditSimilarity()
			// Alignment similarity is robust to the dataset's
			// missing-space errors ("anitadeshpande").
			v[4] = ps.NeedlemanWunsch()
			v[5] = fieldsEqual(a, b, datagen.FieldBirthdate)
			v[6] = fieldsEqual(a, b, datagen.FieldClass)
			v[7] = fieldsEqual(a, b, datagen.FieldSchool)
			return v
		},
	}
}
