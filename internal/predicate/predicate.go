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
//
// Keys are strings at this boundary. An index build (Block) reads ids
// instead wherever a domain hands them out (WithKeyIDs): a key that is
// one function of one field value has an id the domain memoises per
// value, so a build renumbers ids and hashes no key text. A predicate
// with string keys only is interned per build.
package predicate

import (
	"fmt"
	"sync"

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

	// ids, set by WithKeyIDs, appends a record's blocking keys to dst as
	// ids of the domain's; nil for a predicate whose Block interns Keys.
	ids func(dst []uint32, r *records.Record) []uint32

	// bind, set by Of and OfCounted, precomputes the signatures of a
	// record slice and returns the index-addressed evaluator over them,
	// first writing each record's count-filter need into need when need
	// is non-nil; nil for a hand-written predicate, which Bound serves
	// through Eval.
	bind func(recs []*records.Record, need []int32) func(i, j int) bool
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

// OfCounted is Of for a predicate with a count filter: need gives, per
// record, how many blocking keys a matching partner shares with it at
// least, under the one-sided contract
//
//	match(sig(a), sig(b)) ⇒ |Keys(a) ∩ Keys(b)| ≥ min(need(sig(a)), need(sig(b)))
//
// (Keys as a set: a repeated key counts once, which is also how Block
// indexes it). A candidate walk over Block's index meets exactly the
// shared keys, so a phase that walks anyway (core's prune pass) can
// count them and run match only for a pair whose count reaches the
// smaller need: a pair that never does cannot match. The filter only
// ever skips evaluations; the verdict is always match's. A threshold on
// the overlap of the very sets Keys enumerates has a natural need (the
// smallest count that clears it, strsim.OverlapNeed); a predicate whose
// keys carry no such bound declares none. need is pure and safe for
// concurrent use; a value below 1 counts as 1, and nil (Of) means 1 for
// every record — evaluate at the first shared key.
func OfCounted[S any](name string, sig func(r *records.Record) S, match func(a, b S) bool, need func(s S) int, keys func(r *records.Record) []string) P {
	return P{
		Name: name,
		Eval: func(a, b *records.Record) bool { return match(sig(a), sig(b)) },
		Keys: keys,
		bind: func(recs []*records.Record, needs []int32) func(i, j int) bool {
			sigs := make([]S, len(recs))
			for i, r := range recs {
				sigs[i] = sig(r)
			}
			for i := range needs {
				needs[i] = 1
				if need != nil {
					needs[i] = int32(max(1, need(sigs[i])))
				}
			}
			return func(i, j int) bool { return match(sigs[i], sigs[j]) }
		},
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
	return p.BoundNeed(recs, nil)
}

// BoundNeed is Bound for a phase that takes its pairs from a counted
// candidate walk over Block(recs): it also writes into need, when it is
// non-nil (one slot per record), each record's count-filter need — the
// value OfCounted declared, at least 1, and 1 for any other predicate.
// Every pair the evaluator answers true for shares at least
// min(need[i], need[j]) blocking keys.
func (p P) BoundNeed(recs []*records.Record, need []int32) func(i, j int) bool {
	if p.bind != nil {
		return p.bind(recs, need)
	}
	for i := range need {
		need[i] = 1
	}
	eval := p.Eval
	return func(i, j int) bool { return eval(recs[i], recs[j]) }
}

// WithKeyIDs returns p with a second form of its blocking keys, which
// Block reads instead of Keys: ids appends r's keys to dst as ids a
// domain hands out (a memo per field value, an intern table), the i-th
// id naming Keys(r)[i], and for p's lifetime two keys get the same id
// exactly when their strings are equal. The ids need not be dense or
// start at 0 — Block renumbers them — but they size the build's
// renumbering table, so they should be dense over the domain's keys.
// ids must be safe for concurrent use. Keys stays the definition: a
// value from WithKeyIDs keeps its ids if a new Keys is assigned to it
// afterwards.
func (p P) WithKeyIDs(ids func(dst []uint32, r *records.Record) []uint32) P {
	p.ids = ids
	return p
}

// KeyIDs returns the record's blocking keys interned into tab as dense
// uint32 ids, appended to dst (pass a reused slice to avoid per-record
// allocation). Id order matches Keys order. The completeness contract
// carries over verbatim: Eval(a,b) == true implies KeyIDs(a) ∩
// KeyIDs(b) ≠ ∅ for ids from one table. It is for a table that outlives
// one build (the streaming accumulator's, grown record by record); Block
// renumbers ids of its own.
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
// One loop reads every record's keys as the build's dense ids, numbered
// in first-seen order. A predicate with ids (WithKeyIDs) hands over the
// domain's, which the loop renumbers through a slice indexed by source
// id, so no key string is built or hashed; a predicate with Keys only is
// interned into a map of the call's own, sized by len(recs), whose ids
// are first-seen already. Either way the index is the one the strings
// give. Nothing is kept between builds: the renumbering table is pooled
// and reset, and every record's id list is a window of one flat id
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
	var local map[string]uint32
	var rn *renumber
	if p.ids == nil {
		local = make(map[string]uint32, len(recs))
	} else {
		rn = renumbers.Get().(*renumber)
	}
	ends := make([]int, len(recs))
	for i, r := range recs {
		if p.ids != nil {
			start := len(flat)
			flat = p.ids(flat, r)
			rn.apply(flat[start:])
		} else {
			for _, k := range p.Keys(r) {
				id, ok := local[k]
				if !ok {
					id = uint32(len(local))
					local[k] = id
				}
				flat = append(flat, id)
			}
		}
		ends[i] = len(flat)
	}
	space := len(local)
	if rn != nil {
		space = rn.reset()
		renumbers.Put(rn)
	}
	start := 0
	for i, end := range ends {
		dst[i] = flat[start:end]
		start = end
	}
	return index.BuildID(len(recs), space, dst)
}

// renumber maps source key ids to one build's dense ids, numbered in
// first-seen order.
type renumber struct {
	dense []uint32 // source id -> dense id + 1; 0 while unseen
	seen  []uint32 // source ids in first-seen order: dense id -> source id
}

// renumbers pools renumbering tables: a table is as long as its largest
// source id, and reset touches only the ids a build saw, so a build
// costs its key count, not its domain's id space.
var renumbers = sync.Pool{New: func() any { return new(renumber) }}

// apply renumbers ids in place.
func (rn *renumber) apply(ids []uint32) {
	for i, id := range ids {
		if int(id) >= len(rn.dense) {
			rn.dense = append(rn.dense, make([]uint32, int(id)+1-len(rn.dense))...)
		}
		d := rn.dense[id]
		if d == 0 {
			rn.seen = append(rn.seen, id)
			d = uint32(len(rn.seen))
			rn.dense[id] = d
		}
		ids[i] = d - 1
	}
}

// reset clears what apply recorded and returns the number of distinct
// ids it saw.
func (rn *renumber) reset() int {
	n := len(rn.seen)
	for _, id := range rn.seen {
		rn.dense[id] = 0
	}
	rn.seen = rn.seen[:0]
	return n
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
