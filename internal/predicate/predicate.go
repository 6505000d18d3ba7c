// Package predicate implements the necessary/sufficient predicate
// framework of PrunedDedup (paper §4).
//
// A necessary predicate N must be true for every duplicate pair:
// N(a,b) = false ⇒ duplicate(a,b) = false. A sufficient predicate S must
// be false for every non-duplicate pair: S(a,b) = true ⇒ duplicate(a,b) =
// true. Both are assumed much cheaper than the final pairwise criterion P.
//
// Every predicate carries a blocking-key function so candidate pairs can
// be generated with an inverted index instead of an O(n²) scan: the key
// function must be *complete* — whenever the predicate holds for a pair,
// the two records share at least one key. (This is the standard canopy /
// blocking property.)
package predicate

import (
	"fmt"

	"topkdedup/internal/index"
	"topkdedup/internal/intern"
	"topkdedup/internal/records"
)

// P is a cheap pairwise predicate with blocking keys.
type P struct {
	// Name identifies the predicate in logs and stats (e.g. "S1", "N2").
	Name string
	// Eval reports whether the predicate holds for the pair.
	Eval func(a, b *records.Record) bool
	// Keys returns the blocking keys of a record. Completeness contract:
	// Eval(a,b) == true implies Keys(a) ∩ Keys(b) ≠ ∅. The result may be
	// shared (a gram predicate returns its cache's memoised gram list)
	// and is read-only: callers range it and must not sort, append to or
	// write it. Keys need not be distinct across predicates — every index
	// is built over one predicate's keys alone.
	Keys func(r *records.Record) []string

	// bind and bindCounted, set by Of and OfCounted, precompute the
	// signatures of a record slice and return the index-addressed
	// evaluator over them — bind the two-argument form, bindCounted the
	// one that is also told how many blocking keys the pair shares; nil
	// for a hand-written predicate, which Bound and BoundCounted serve
	// through Eval. counted records whether bindCounted reads the count.
	bind        func(recs []*records.Record) func(i, j int) bool
	bindCounted func(recs []*records.Record) func(i, j, shared int) bool
	counted     bool
}

// Of builds a predicate from a per-record signature and a match on two
// signatures: sig extracts everything the predicate reads from one
// record (interned id slices, normalised keys, the fields compared for
// equality), and match decides the pair from the two signatures alone.
// Eval is match(sig(a), sig(b)); Bound computes each record's signature
// once and then only runs match. Both forms share the one definition of
// the predicate's logic.
//
// Contract: match is pure, allocation-free and safe for concurrent use;
// sig may allocate and memoise but must be safe for concurrent use and
// return the same signature for the same record every time.
func Of[S any](name string, sig func(r *records.Record) S, match func(a, b S) bool, keys func(r *records.Record) []string) P {
	return OfCounted(name, sig, match, nil, keys)
}

// OfCounted is Of for a predicate whose verdict on a candidate pair
// follows from how many blocking keys the pair shares — a threshold on
// the overlap of the very sets Keys enumerates. decide is the
// shared-count form of match, under the contract
//
//	decide(sig(a), sig(b), |Keys(a) ∩ Keys(b)|) == match(sig(a), sig(b))
//
// for every pair of records sharing at least one key (Keys as a set: a
// repeated key counts once, which is also how Block indexes it). A
// candidate walk over Block's index meets exactly those shared keys, so
// a phase that walks anyway (core's prune pass) hands decide the count
// and the verdict costs no second read of the two key sets; decide may
// still read anything else in the signatures. A predicate whose keys are
// not the sets its match intersects must not declare one (students N1:
// keys use any lead byte, the match an a–z letter mask). decide obeys
// match's contract: pure, allocation-free, safe for concurrent use; nil
// means no count form (Of).
func OfCounted[S any](name string, sig func(r *records.Record) S, match func(a, b S) bool, decide func(a, b S, shared int) bool, keys func(r *records.Record) []string) P {
	sigsOf := func(recs []*records.Record) []S {
		sigs := make([]S, len(recs))
		for i, r := range recs {
			sigs[i] = sig(r)
		}
		return sigs
	}
	return P{
		Name: name,
		Eval: func(a, b *records.Record) bool { return match(sig(a), sig(b)) },
		Keys: keys,
		bind: func(recs []*records.Record) func(i, j int) bool {
			sigs := sigsOf(recs)
			return func(i, j int) bool { return match(sigs[i], sigs[j]) }
		},
		bindCounted: func(recs []*records.Record) func(i, j, shared int) bool {
			sigs := sigsOf(recs)
			if decide == nil {
				return func(i, j, _ int) bool { return match(sigs[i], sigs[j]) }
			}
			return func(i, j, shared int) bool { return decide(sigs[i], sigs[j], shared) }
		},
		counted: decide != nil,
	}
}

// Bound binds the predicate to the records a phase will compare and
// returns an evaluator addressed by index into recs, with
// Bound(recs)(i, j) == Eval(recs[i], recs[j]) for every pair. For a
// predicate built with Of the signatures are computed here, once per
// record, and each call afterwards touches no map, lock or string hash;
// a hand-written Eval-only predicate is served by calling Eval. (A value
// from Of keeps its signatures' definition: assigning a new Eval to it
// afterwards does not change what Bound evaluates.) The evaluator is
// read-only and safe for concurrent use whenever the predicate is.
func (p P) Bound(recs []*records.Record) func(i, j int) bool {
	if p.bind != nil {
		return p.bind(recs)
	}
	eval := p.Eval
	return func(i, j int) bool { return eval(recs[i], recs[j]) }
}

// BoundCounted is Bound for a phase that takes its pairs from a
// candidate walk over Block(recs) and so knows, for each pair, how many
// blocking keys the two records share: the evaluator takes that count as
// its third argument and, for every pair sharing a key,
// BoundCounted(recs)(i, j, shared) == Eval(recs[i], recs[j]). A
// predicate from OfCounted answers from the count; any other ignores it
// and evaluates as Bound does, so a caller binds once, this way, and
// runs one loop whichever kind of predicate it was given.
func (p P) BoundCounted(recs []*records.Record) func(i, j, shared int) bool {
	if p.bindCounted != nil {
		return p.bindCounted(recs)
	}
	eval := p.Eval
	return func(i, j, _ int) bool { return eval(recs[i], recs[j]) }
}

// Counted reports whether the predicate declared a shared-count form
// (OfCounted with a decide), that is, whether BoundCounted's evaluator
// reads its count.
func (p P) Counted() bool { return p.counted }

// KeyIDs returns the record's blocking keys interned into tab as dense
// uint32 ids, appended to dst (pass a reused slice to avoid per-record
// allocation). Id order matches Keys order. The completeness contract
// carries over verbatim: Eval(a,b) == true implies KeyIDs(a) ∩
// KeyIDs(b) ≠ ∅ for ids from one table. It is for a table that outlives
// one build (the streaming accumulator's, grown record by record); Block
// interns into a table of its own.
func (p P) KeyIDs(tab *intern.Table, r *records.Record, dst []uint32) []uint32 {
	return tab.InternAll(dst, p.Keys(r))
}

// Block is the blocking half of what Bound is for matching: it interns
// the blocking keys of the records a phase will compare (ids in
// first-seen order over recs, so they are identical run to run) and
// returns the inverted index over them, addressed like Bound's
// evaluator by index into recs. Every candidate walk — pairs sharing a
// key, one item's candidates, bucket weight totals — reads this index,
// so enumeration order is fixed everywhere: items ascending, each
// item's keys in Keys order, every bucket ascending. A key that Keys
// lists more than once for a record is indexed once, at its first
// position (index.BuildID): the record sits in that bucket once, and a
// walk's per-candidate key count is the size of a set intersection.
//
// The key table is the call's own: a map sized by len(recs), dropped
// when the call returns, so nothing is kept between builds and no lock
// is taken per key. Every record's id list is a window of one flat id
// buffer.
//
// dst, when non-nil, is a previous call's KeyIDs handed back: its id
// buffer is reused (the index retains it), so a caller building one
// index per query allocates the buffer once.
func (p P) Block(recs []*records.Record, dst [][]uint32) *index.IDIndex {
	var flat []uint32
	if len(dst) > 0 {
		flat = dst[0][:0] // record 0's window starts the buffer and spans its capacity
	}
	if cap(dst) < len(recs) {
		dst = make([][]uint32, len(recs))
	}
	dst = dst[:len(recs)]
	ids := make(map[string]uint32, len(recs))
	ends := make([]int, len(recs))
	for i, r := range recs {
		for _, k := range p.Keys(r) {
			id, ok := ids[k]
			if !ok {
				id = uint32(len(ids))
				ids[k] = id
			}
			flat = append(flat, id)
		}
		ends[i] = len(flat)
	}
	start := 0
	for i, end := range ends {
		dst[i] = flat[start:end]
		start = end
	}
	return index.BuildID(len(recs), len(ids), dst)
}

// Level pairs one sufficient with one necessary predicate; PrunedDedup
// takes a schedule of levels of increasing cost and tightness.
type Level struct {
	Sufficient P
	Necessary  P
}

// Violation describes a pair breaking a predicate contract, found by
// Validate.
type Violation struct {
	Kind string // "sufficient" or "necessary" or "keys"
	Pred string
	A, B int // record IDs
}

// String renders the violation for logs and error messages.
func (v Violation) String() string {
	return fmt.Sprintf("%s predicate %s violated by pair (%d, %d)", v.Kind, v.Pred, v.A, v.B)
}

// ValidateSufficient checks S's contract against ground truth on all
// within-key candidate pairs: whenever S holds, the two records must share
// a truth label. Records without truth labels are skipped. At most
// maxViolations are reported (0 means collect all).
func ValidateSufficient(d *records.Dataset, s P, maxViolations int) []Violation {
	var out []Violation
	forEachKeyPair(d, s, func(a, b *records.Record) bool {
		if a.Truth == "" || b.Truth == "" {
			return true
		}
		if s.Eval(a, b) && a.Truth != b.Truth {
			out = append(out, Violation{Kind: "sufficient", Pred: s.Name, A: a.ID, B: b.ID})
			if maxViolations > 0 && len(out) >= maxViolations {
				return false
			}
		}
		return true
	})
	return out
}

// ValidateNecessary checks N's contract against ground truth: every
// same-truth pair must satisfy N. This is inherently O(Σ group²) over
// truth groups, which is fine for labelled validation sets. It also
// verifies key completeness: same-truth pairs satisfying N must share a
// key. At most maxViolations are reported (0 means collect all).
func ValidateNecessary(d *records.Dataset, n P, maxViolations int) []Violation {
	var out []Violation
	add := func(v Violation) bool {
		out = append(out, v)
		return maxViolations <= 0 || len(out) < maxViolations
	}
	for _, ids := range d.TruthGroups() {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := d.Recs[ids[i]], d.Recs[ids[j]]
				if !n.Eval(a, b) {
					if !add(Violation{Kind: "necessary", Pred: n.Name, A: a.ID, B: b.ID}) {
						return out
					}
					continue
				}
				if !keysIntersect(n, a, b) {
					if !add(Violation{Kind: "keys", Pred: n.Name, A: a.ID, B: b.ID}) {
						return out
					}
				}
			}
		}
	}
	return out
}

func keysIntersect(p P, a, b *records.Record) bool {
	return p.Block([]*records.Record{a, b}, nil).PairCount() > 0
}

// forEachKeyPair enumerates candidate pairs sharing at least one blocking
// key and calls fn for each distinct pair once; fn returning false stops
// the enumeration.
func forEachKeyPair(d *records.Dataset, p P, fn func(a, b *records.Record) bool) {
	p.Block(d.Recs, nil).ForEachPair(func(i, j int) bool { return fn(d.Recs[i], d.Recs[j]) })
}
