package strsim_test

import (
	"math"
	"math/rand"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/records"
	"topkdedup/internal/strsim"
)

// refFeatureSet is one domain's feature set next to its reference: the
// Vec body it had before the pair kernel, over the map-based reference
// measures (reference_test.go).
type refFeatureSet struct {
	name string
	d    *records.Dataset
	dom  domains.Domain
	ref  func(a, b *records.Record) []float64
}

func refEq(a, b *records.Record, f string) float64 {
	if a.Field(f) != "" && a.Field(f) == b.Field(f) {
		return 1
	}
	return 0
}

// refFeatureSets builds the six built-in feature sets on generated
// datasets of about n records each, with their references.
func refFeatureSets(n int) []refFeatureSet {
	citD := datagen.Citations(datagen.DefaultCitationConfig(n))
	citC := domains.BuildDistinctCorpus(citD, datagen.FieldAuthor)
	stuD := datagen.Students(datagen.DefaultStudentConfig(n))
	addrD := datagen.Addresses(datagen.DefaultAddressConfig(n))
	addrC := domains.BuildCorpus(addrD, datagen.FieldOwner, datagen.FieldAddress)
	restD := datagen.Restaurants(datagen.RestaurantConfig{Seed: 22, NumRestaurants: n * 5 / 6, Noise: 0.8})
	restC := domains.BuildCorpus(restD, datagen.FieldOwner)
	authD := datagen.AuthorNames(21, n)
	authC := domains.BuildCorpus(authD, datagen.FieldAuthor)
	getD := datagen.Getoor(24, n)
	getC := domains.BuildCorpus(getD, datagen.FieldAuthor, datagen.FieldTitle)
	return []refFeatureSet{
		{"citations", citD, domains.Citations(citC, domains.CitationOptions{}), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor)
			ca, cb := a.Field(datagen.FieldCoauthors), b.Field(datagen.FieldCoauthors)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefGramOverlapRatio(na, nb, 3),
				strsim.RefInitialsJaccard(na, nb),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefAuthorSimilarity(citC, na, nb),
				strsim.RefJaccardTokens(ca, cb),
				strsim.RefCoauthorSimilarity(citC, ca, cb),
				refEq(a, b, datagen.FieldYear),
			}
		}},
		{"students", stuD, domains.Students(domains.StudentOptions{}), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldName), b.Field(datagen.FieldName)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefGramOverlapRatio(na, nb, 3),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefEditSimilarity(na, nb),
				strsim.RefNeedlemanWunsch(na, nb),
				refEq(a, b, datagen.FieldBirthdate),
				refEq(a, b, datagen.FieldClass),
				refEq(a, b, datagen.FieldSchool),
			}
		}},
		{"addresses", addrD, domains.Addresses(addrC), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner)
			aa, ab := a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefInitialsJaccard(na, nb),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefAuthorSimilarity(addrC, na, nb),
				strsim.RefJaccardGrams(aa, ab, 3),
				strsim.RefNonStopOverlap(aa, ab, strsim.AddressStopWords),
				refEq(a, b, datagen.FieldPin),
			}
		}},
		{"restaurant", restD, domains.Restaurants(restC), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldOwner), b.Field(datagen.FieldOwner)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefTFIDFCosine(restC, na, nb),
				strsim.RefJaccardTokens(a.Field(datagen.FieldAddress), b.Field(datagen.FieldAddress)),
				refEq(a, b, datagen.FieldCity),
				refEq(a, b, datagen.FieldCuisine),
			}
		}},
		{"authors", authD, domains.AuthorsOnly(authC), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefGramOverlapRatio(na, nb, 3),
				strsim.RefInitialsJaccard(na, nb),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefAuthorSimilarity(authC, na, nb),
				strsim.RefTFIDFCosine(authC, na, nb),
				strsim.RefMongeElkan(na, nb, nil),
				strsim.RefSoftTFIDF(authC, na, nb, nil, 0.9),
			}
		}},
		{"getoor", getD, domains.GetoorDomain(getC), func(a, b *records.Record) []float64 {
			na, nb := a.Field(datagen.FieldAuthor), b.Field(datagen.FieldAuthor)
			ta, tb := a.Field(datagen.FieldTitle), b.Field(datagen.FieldTitle)
			return []float64{
				strsim.RefJaccardGrams(na, nb, 3),
				strsim.RefJaroWinkler(na, nb),
				strsim.RefAuthorSimilarity(getC, na, nb),
				strsim.RefJaccardTokens(ta, tb),
				strsim.RefTFIDFCosine(getC, ta, tb),
			}
		}},
	}
}

// candidatePairs returns the pairs of fs's dataset that pass the domain's
// last necessary predicate: the pairs P scores in the final phase.
func candidatePairs(fs refFeatureSet) [][2]*records.Record {
	lastN := fs.dom.Levels[len(fs.dom.Levels)-1].Necessary
	recs := fs.d.Recs
	var out [][2]*records.Record
	lastN.Block(recs, nil).ForEachPair(func(i, j int) bool {
		if lastN.Eval(recs[i], recs[j]) {
			out = append(out, [2]*records.Record{recs[i], recs[j]})
		}
		return true
	})
	return out
}

// TestFeatureVecAllocs pins every built-in feature set's Vec at one
// allocation per pair — the returned slice — once the pooled pair
// scratch is warm; the map-based feature vectors it replaced made 23 to
// 78 (BenchmarkFeatureVec's /reference rows). Under -race sync.Pool drops Puts at random, so the pin
// holds only in a normal build (ci.sh runs this test by name in one).
func TestFeatureVecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	for _, fs := range refFeatureSets(300) {
		pairs := candidatePairs(fs)
		if len(pairs) > 50 {
			pairs = pairs[:50]
		}
		vec := fs.dom.Features.Vec
		for _, p := range pairs {
			vec(p[0], p[1])
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := pairs[i%len(pairs)]
			vec(p[0], p[1])
			i++
		})
		if allocs > 1 {
			t.Errorf("%s Vec = %v allocs/pair, want at most 1", fs.name, allocs)
		}
	}
}

// BenchmarkFeatureVec times each built-in feature set's Vec over its
// final-phase candidate pairs (datasets of about 1,000 records), against
// the map-based reference Vec it replaced: run with -benchmem for the
// per-pair allocations of both.
func BenchmarkFeatureVec(b *testing.B) {
	for _, fs := range refFeatureSets(1000) {
		pairs := candidatePairs(fs)
		for _, impl := range []struct {
			name string
			vec  func(a, b *records.Record) []float64
		}{{"kernel", fs.dom.Features.Vec}, {"reference", fs.ref}} {
			b.Run(fs.name+"/"+impl.name, func(b *testing.B) {
				impl.vec(pairs[0][0], pairs[0][1]) // warm the pooled scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					impl.vec(p[0], p[1])
				}
			})
		}
	}
}

// TestFeatureVectorsMatchReference holds all six built-in feature sets
// to their pre-kernel Vec bodies, bit for bit (math.Float64bits), on
// every pair of a generated dataset of about 3,000 records that passes
// the domain's last necessary predicate (the pairs P scores), on seeded
// random pairs, and on records whose every field is one of the hostile
// strings of TestPairMatchesReference.
func TestFeatureVectorsMatchReference(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	for _, fs := range refFeatureSets(n) {
		t.Run(fs.name, func(t *testing.T) {
			vec := fs.dom.Features.Vec
			checked := 0
			check := func(a, b *records.Record) {
				t.Helper()
				got, want := vec(a, b), fs.ref(a, b)
				if len(got) != len(want) || len(got) != len(fs.dom.Features.Names) {
					t.Fatalf("pair (%d, %d): %d features, reference %d, %d names", a.ID, b.ID, len(got), len(want), len(fs.dom.Features.Names))
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("pair (%d, %d) %v / %v: feature %s = %v, reference %v",
							a.ID, b.ID, a.Fields, b.Fields, fs.dom.Features.Names[k], got[k], want[k])
					}
				}
				checked++
			}
			for _, p := range candidatePairs(fs) {
				check(p[0], p[1])
			}
			recs := fs.d.Recs
			r := rand.New(rand.NewSource(3))
			for trial := 0; trial < 2000; trial++ {
				check(recs[r.Intn(len(recs))], recs[r.Intn(len(recs))])
			}
			hostile := records.New("hostile", fs.d.Schema...)
			for _, s := range strsim.HostileInputs {
				vals := make([]string, len(fs.d.Schema))
				for k := range vals {
					vals[k] = s
				}
				hostile.Append(1, "", vals...)
			}
			for _, a := range hostile.Recs {
				for _, b := range hostile.Recs {
					check(a, b)
				}
			}
			t.Logf("%d pairs bit-identical", checked)
		})
	}
}
