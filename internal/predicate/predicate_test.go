package predicate

import (
	"reflect"
	"testing"

	"topkdedup/internal/records"
)

// nameEq is a toy sufficient predicate: exact name equality.
func nameEq() P {
	return P{
		Name: "nameEq",
		Eval: func(a, b *records.Record) bool {
			return a.Field("name") == b.Field("name") && a.Field("name") != ""
		},
		Keys: func(r *records.Record) []string { return []string{r.Field("name")} },
	}
}

// sharesInitial is a toy necessary predicate: names share a first letter.
func sharesInitial() P {
	return P{
		Name: "sharesInitial",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *records.Record) []string {
			n := r.Field("name")
			if n == "" {
				return nil
			}
			return []string{n[:1]}
		},
	}
}

func dataset() *records.Dataset {
	d := records.New("t", "name")
	d.Append(1, "E1", "alice")  // 0
	d.Append(1, "E1", "alice")  // 1 exact dup
	d.Append(1, "E1", "alicia") // 2 variant
	d.Append(1, "E2", "bob")    // 3
	d.Append(1, "E3", "amy")    // 4 shares initial with E1
	return d
}

func TestValidateSufficientPasses(t *testing.T) {
	if v := ValidateSufficient(dataset(), nameEq(), 0); len(v) != 0 {
		t.Errorf("valid sufficient predicate reported violations: %v", v)
	}
}

func TestValidateSufficientCatchesViolation(t *testing.T) {
	d := records.New("t", "name")
	d.Append(1, "E1", "same")
	d.Append(1, "E2", "same") // different entity, same name: nameEq breaks
	v := ValidateSufficient(d, nameEq(), 0)
	if len(v) != 1 {
		t.Fatalf("expected 1 violation, got %v", v)
	}
	if v[0].Kind != "sufficient" || v[0].Pred != "nameEq" {
		t.Errorf("violation fields wrong: %+v", v[0])
	}
	if v[0].String() == "" {
		t.Error("violation should render")
	}
}

func TestValidateSufficientSkipsUnlabelled(t *testing.T) {
	d := records.New("t", "name")
	d.Append(1, "", "same")
	d.Append(1, "E2", "same")
	if v := ValidateSufficient(d, nameEq(), 0); len(v) != 0 {
		t.Errorf("unlabelled records should be skipped, got %v", v)
	}
}

func TestValidateNecessaryPasses(t *testing.T) {
	if v := ValidateNecessary(dataset(), sharesInitial(), 0); len(v) != 0 {
		t.Errorf("valid necessary predicate reported violations: %v", v)
	}
}

func TestValidateNecessaryCatchesViolation(t *testing.T) {
	d := records.New("t", "name")
	d.Append(1, "E1", "alice")
	d.Append(1, "E1", "bob") // same entity, different initial: N breaks
	v := ValidateNecessary(d, sharesInitial(), 0)
	if len(v) != 1 || v[0].Kind != "necessary" {
		t.Fatalf("expected 1 necessary violation, got %v", v)
	}
}

func TestValidateNecessaryCatchesIncompleteKeys(t *testing.T) {
	// Predicate true for same-entity pair but keys don't intersect.
	badKeys := P{
		Name: "badKeys",
		Eval: func(a, b *records.Record) bool { return true },
		Keys: func(r *records.Record) []string { return []string{r.Field("name")} },
	}
	d := records.New("t", "name")
	d.Append(1, "E1", "alice")
	d.Append(1, "E1", "bob")
	v := ValidateNecessary(d, badKeys, 0)
	if len(v) != 1 || v[0].Kind != "keys" {
		t.Fatalf("expected 1 keys violation, got %v", v)
	}
}

func TestValidateMaxViolations(t *testing.T) {
	d := records.New("t", "name")
	for i := 0; i < 5; i++ {
		d.Append(1, "E1", string(rune('a'+i))) // all same entity, no shared initials
	}
	v := ValidateNecessary(d, sharesInitial(), 3)
	if len(v) != 3 {
		t.Errorf("maxViolations not honoured: got %d", len(v))
	}
}

func TestForEachKeyPairDedup(t *testing.T) {
	d := records.New("t", "name")
	d.Append(1, "E1", "aa")
	d.Append(1, "E1", "aa")
	p := P{
		Name: "two-keys",
		Eval: func(a, b *records.Record) bool { return true },
		Keys: func(r *records.Record) []string { return []string{"k1", "k2"} },
	}
	count := 0
	forEachKeyPair(d, p, func(a, b *records.Record) bool {
		count++
		return true
	})
	if count != 1 {
		t.Errorf("pair sharing two keys visited %d times, want 1", count)
	}
}

// TestBoundEqualsEval covers both forms Bound takes — signatures
// computed once for a predicate built with Of, Eval called through for a
// hand-written one — against Eval on every pair, and checks that Of
// computes each record's signature once per bind, not once per pair.
func TestBoundEqualsEval(t *testing.T) {
	d := dataset()
	sigCalls := 0
	viaOf := Of("nameEqOf",
		func(r *records.Record) string { sigCalls++; return r.Field("name") },
		func(a, b string) bool { return a == b && a != "" },
		nameEq().Keys)
	for _, p := range []P{viaOf, nameEq(), sharesInitial()} {
		eval := p.Bound(d.Recs)
		for i := range d.Recs {
			for j := range d.Recs {
				if got, want := eval(i, j), p.Eval(d.Recs[i], d.Recs[j]); got != want {
					t.Errorf("%s: Bound(%d, %d) = %v, Eval = %v", p.Name, i, j, got, want)
				}
			}
		}
	}
	sigCalls = 0
	eval := viaOf.Bound(d.Recs)
	for i := range d.Recs {
		for j := range d.Recs {
			eval(i, j)
		}
	}
	if sigCalls != d.Len() {
		t.Errorf("Of: %d signature computations for one bind over %d records", sigCalls, d.Len())
	}
	if v := ValidateSufficient(d, viaOf, 0); len(v) != 0 {
		t.Errorf("validators must keep working on a predicate built with Of: %v", v)
	}
}

// TestBoundNeedForms: BoundNeed writes the need OfCounted declared per
// record, raised to at least 1, and the evaluator stays match on the
// signatures; a predicate from Of and a hand-written one need 1
// everywhere and evaluate as Eval does. One bind computes each
// signature once, and a nil need slice is left alone.
func TestBoundNeedForms(t *testing.T) {
	d := dataset()
	sigCalls := 0
	name := func(r *records.Record) string { sigCalls++; return r.Field("name") }
	eq := func(a, b string) bool { return a == b && a != "" }
	counted := OfCounted("counted", name, eq, func(s string) int { return len(s) - 3 }, nameEq().Keys)
	need := make([]int32, d.Len())
	eval := counted.BoundNeed(d.Recs, need)
	if sigCalls != d.Len() {
		t.Errorf("OfCounted: %d signature computations for one bind over %d records", sigCalls, d.Len())
	}
	for i, r := range d.Recs {
		if want := int32(max(1, len(r.Field("name"))-3)); need[i] != want {
			t.Errorf("record %d (%q): need %d, want %d", i, r.Field("name"), need[i], want)
		}
		for j := range d.Recs {
			if got, want := eval(i, j), counted.Eval(r, d.Recs[j]); got != want {
				t.Errorf("counted: BoundNeed(%d, %d) = %v, Eval = %v", i, j, got, want)
			}
		}
	}
	for _, p := range []P{Of("plain", name, eq, nameEq().Keys), nameEq(), sharesInitial()} {
		for i := range need {
			need[i] = 7
		}
		eval := p.BoundNeed(d.Recs, need)
		for i := range d.Recs {
			if need[i] != 1 {
				t.Errorf("%s: record %d need %d, want 1", p.Name, i, need[i])
			}
			for j := range d.Recs {
				if got, want := eval(i, j), p.Eval(d.Recs[i], d.Recs[j]); got != want {
					t.Errorf("%s: BoundNeed(%d, %d) = %v, Eval = %v", p.Name, i, j, got, want)
				}
			}
		}
		p.BoundNeed(d.Recs, nil)
	}
}

// TestBlockRepeatedKeyIndexedOnce: a Keys that lists one key twice puts
// the record in that bucket once, so pairs, bucket sizes and the
// per-record key lists are those of the single-key predicate.
func TestBlockRepeatedKeyIndexedOnce(t *testing.T) {
	d := dataset()
	keyed := func(keys ...string) P {
		return P{
			Name: "k",
			Eval: func(a, b *records.Record) bool { return true },
			Keys: func(r *records.Record) []string { return keys },
		}
	}
	twice, once := keyed("k", "k").Block(d.Recs, nil), keyed("k").Block(d.Recs, nil)
	if got := twice.Bucket(0); len(got) != d.Len() {
		t.Errorf("bucket of the repeated key holds %d items for %d records: %v", len(got), d.Len(), got)
	}
	if twice.PairCount() != once.PairCount() {
		t.Errorf("PairCount = %d with the key repeated, %d without", twice.PairCount(), once.PairCount())
	}
	for i, ids := range twice.KeyIDs() {
		if len(ids) != 1 {
			t.Errorf("record %d keeps key ids %v, want one", i, ids)
		}
	}
}

// TestBlockReadsKeyIDs: a predicate given its keys as ids (WithKeyIDs)
// — here sparse, large, listed out of first-seen order and with a
// repeat — builds the index its string keys give, on the first build
// and on a second that reuses the first's id buffer and the pooled
// renumbering table; and Block reads the ids, not Keys.
func TestBlockReadsKeyIDs(t *testing.T) {
	d := dataset()
	keys := func(r *records.Record) []string {
		n := r.Field("name")
		if n == "" {
			return nil
		}
		return []string{n[:1], "len" + string(rune('0'+len(n)%10)), n[:1]}
	}
	ids := func(dst []uint32, r *records.Record) []uint32 {
		for _, k := range keys(r) {
			dst = append(dst, 1000+7*uint32(k[0])+uint32(k[len(k)-1]))
		}
		return dst
	}
	str := P{Name: "str", Eval: func(a, b *records.Record) bool { return true }, Keys: keys}
	byID := str.WithKeyIDs(ids)
	byID.Keys = func(*records.Record) []string { panic("Block called Keys") }
	want := str.Block(d.Recs, nil)
	got := byID.Block(d.Recs, nil)
	for pass := range 2 {
		if got.KeySpace() != want.KeySpace() || !reflect.DeepEqual(got.KeyIDs(), want.KeyIDs()) {
			t.Fatalf("pass %d: key space %d, key ids %v; want %d, %v", pass, got.KeySpace(), got.KeyIDs(), want.KeySpace(), want.KeyIDs())
		}
		for id := range uint32(want.KeySpace()) {
			if !reflect.DeepEqual(got.Bucket(id), want.Bucket(id)) {
				t.Fatalf("pass %d: bucket %d = %v, want %v", pass, id, got.Bucket(id), want.Bucket(id))
			}
		}
		got = byID.Block(d.Recs, got.KeyIDs())
	}
}
