package domains

import (
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

func validate(t *testing.T, name string, d *records.Dataset, levels []predicate.Level, maxSuffViolRate, maxNecViolRate float64) {
	t.Helper()
	// Count labelled within-group pairs for rate normalisation.
	var totalPairs int64
	for _, ids := range d.TruthGroups() {
		n := int64(len(ids))
		totalPairs += n * (n - 1) / 2
	}
	if totalPairs == 0 {
		t.Fatalf("%s: no labelled pairs", name)
	}
	for li, level := range levels {
		sv := predicate.ValidateSufficient(d, level.Sufficient, 0)
		nv := predicate.ValidateNecessary(d, level.Necessary, 0)
		if rate := float64(len(sv)) / float64(totalPairs); rate > maxSuffViolRate {
			t.Errorf("%s level %d: sufficient predicate violation rate %.4f > %.4f (%d violations)",
				name, li+1, rate, maxSuffViolRate, len(sv))
		}
		if rate := float64(len(nv)) / float64(totalPairs); rate > maxNecViolRate {
			t.Errorf("%s level %d: necessary predicate violation rate %.4f > %.4f (%d violations)",
				name, li+1, rate, maxNecViolRate, len(nv))
		}
	}
}

func TestCitationPredicatesValid(t *testing.T) {
	d := datagen.Citations(datagen.DefaultCitationConfig(4000))
	c := BuildDistinctCorpus(d, datagen.FieldAuthor)
	dom := Citations(c, CitationOptions{})
	if dom.Name != "citations" || len(dom.Levels) != 2 {
		t.Fatalf("unexpected domain shape: %+v", dom.Name)
	}
	// The paper validated its hand-chosen predicates on labelled data; our
	// generator's channels are slightly harsher, so allow a small slack.
	validate(t, "citations", d, dom.Levels, 0.001, 0.10)
}

func TestStudentPredicatesValid(t *testing.T) {
	d := datagen.Students(datagen.DefaultStudentConfig(4000))
	dom := Students(StudentOptions{})
	if len(dom.Levels) != 2 {
		t.Fatal("students should have two levels")
	}
	validate(t, "students", d, dom.Levels, 0.001, 0.08)
}

func TestAddressPredicatesValid(t *testing.T) {
	d := datagen.Addresses(datagen.DefaultAddressConfig(4000))
	c := BuildCorpus(d, datagen.FieldOwner, datagen.FieldAddress)
	dom := Addresses(c)
	if len(dom.Levels) != 1 {
		t.Fatal("addresses should have one level")
	}
	// N1 violations (true duplicates failing the 4-common-words bar) cost
	// recall, not pruning safety; the observed rate floats around 10% as
	// the shared name pools evolve, so allow slack.
	validate(t, "addresses", d, dom.Levels, 0.002, 0.13)
}

func TestRestaurantPredicatesValid(t *testing.T) {
	d := datagen.Restaurants(datagen.RestaurantConfig{Seed: 4, NumRestaurants: 700, Noise: 0.8})
	c := BuildCorpus(d, datagen.FieldOwner)
	dom := Restaurants(c)
	validate(t, "restaurant", d, dom.Levels, 0.002, 0.1)
}

func TestAuthorsOnlyPredicatesValid(t *testing.T) {
	d := datagen.AuthorNames(5, 1800)
	c := BuildCorpus(d, datagen.FieldAuthor)
	dom := AuthorsOnly(c)
	validate(t, "authors", d, dom.Levels, 0.002, 0.1)
}

func TestGetoorPredicatesValid(t *testing.T) {
	d := datagen.Getoor(6, 1700)
	c := BuildCorpus(d, datagen.FieldAuthor, datagen.FieldTitle)
	dom := GetoorDomain(c)
	validate(t, "getoor", d, dom.Levels, 0.002, 0.1)
}

func TestFeatureVectorsWellFormed(t *testing.T) {
	type tc struct {
		name string
		d    *records.Dataset
		fs   FeatureSet
	}
	citD := datagen.Citations(datagen.DefaultCitationConfig(500))
	citC := BuildCorpus(citD, datagen.FieldAuthor)
	stuD := datagen.Students(datagen.DefaultStudentConfig(500))
	addrD := datagen.Addresses(datagen.DefaultAddressConfig(500))
	addrC := BuildCorpus(addrD, datagen.FieldOwner, datagen.FieldAddress)
	restD := datagen.Restaurants(datagen.RestaurantConfig{Seed: 4, NumRestaurants: 200, Noise: 0.8})
	restC := BuildCorpus(restD, datagen.FieldOwner)
	cases := []tc{
		{"citations", citD, CitationFeatures(citC)},
		{"students", stuD, StudentFeatures()},
		{"addresses", addrD, AddressFeatures(addrC, nil)},
		{"restaurant", restD, RestaurantFeatures(restC)},
	}
	for _, c := range cases {
		for i := 0; i < 20 && i+1 < c.d.Len(); i += 2 {
			v := c.fs.Vec(c.d.Recs[i], c.d.Recs[i+1])
			if len(v) != len(c.fs.Names) {
				t.Fatalf("%s: vector length %d != %d names", c.name, len(v), len(c.fs.Names))
			}
			for fi, x := range v {
				if x < -1e-9 || x > 1+1e-9 {
					t.Errorf("%s feature %s out of [0,1]: %v", c.name, c.fs.Names[fi], x)
				}
			}
			// Symmetry.
			w := c.fs.Vec(c.d.Recs[i+1], c.d.Recs[i])
			for fi := range v {
				if v[fi] != w[fi] {
					t.Errorf("%s feature %s asymmetric", c.name, c.fs.Names[fi])
				}
			}
		}
		// Self-similarity should be maximal-ish for most features.
		r := c.d.Recs[0]
		v := c.fs.Vec(r, r)
		high := 0
		for _, x := range v {
			if x > 0.9 {
				high++
			}
		}
		if high == 0 {
			t.Errorf("%s: self-pair has no high features: %v", c.name, v)
		}
	}
}

func TestHelperFunctions(t *testing.T) {
	if got := sortedTokensKey("Beta Alpha"); got != "alpha beta" {
		t.Errorf("sortedTokensKey = %q", got)
	}
	if got := lastToken("Sunita Sarawagi"); got != "sarawagi" {
		t.Errorf("lastToken = %q", got)
	}
	if got := lastToken(""); got != "" {
		t.Errorf("lastToken empty = %q", got)
	}
	keys := wordPairKeys("p|", []string{"b", "a", "b", "c"})
	want := map[string]bool{"p|a|b": true, "p|a|c": true, "p|b|c": true}
	if len(keys) != 3 {
		t.Fatalf("wordPairKeys = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %q", k)
		}
	}
	if got := wordPairKeys("p|", []string{"only"}); len(got) != 0 {
		t.Errorf("single word should give no pair keys: %v", got)
	}
}

func TestBuildCorpusCountsFields(t *testing.T) {
	d := records.New("t", "a", "b")
	d.Append(1, "", "x y", "z")
	d.Append(1, "", "x", "w")
	c := BuildCorpus(d, "a", "b")
	if c.DocCount() != 4 {
		t.Errorf("DocCount = %d, want 4 (2 records x 2 fields)", c.DocCount())
	}
	if c.IDF("x") >= c.IDF("z") {
		t.Error("x (df=2) should have lower IDF than z (df=1)")
	}
}

func TestRareWordIDFThreshold(t *testing.T) {
	d := records.New("t", "a")
	for i := 0; i < 100; i++ {
		d.Append(1, "", "common")
	}
	d.Append(1, "", "rareword")
	c := BuildCorpus(d, "a")
	thr := rareWordIDFThreshold(c, 2)
	if c.IDF("rareword") < thr {
		t.Error("df=1 token should clear a df<=2 threshold")
	}
	if c.IDF("common") >= thr {
		t.Error("df=100 token should fail a df<=2 threshold")
	}
}
