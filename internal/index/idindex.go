// Package index provides the inverted index used to generate candidate
// pairs for blocking-key predicates without an O(n²) scan. Items are
// integers [0, n) (record or group IDs); each item carries a list of
// interned blocking-key ids, and only items sharing a key can possibly
// satisfy the predicate (the completeness contract of predicate.P.Keys).
package index

// IDIndex is an inverted index from interned blocking-key ids (dense
// uint32 ids, first-seen order) to the items carrying them. Buckets are
// laid out in compressed sparse rows: one flat item slice, cut by an
// offset per key id, so bucket lookup is two array reads and a build
// allocates the same few slices whatever the key count. The key
// inversion (item -> its key ids) is the build input itself —
// ForEachPair and PairCount never re-derive it. Every enumeration order
// is fixed by the build input: items ascending, each item's keys in
// their build order, every bucket ascending.
type IDIndex struct {
	n      int
	off    []int32 // bucket id is items[off[id]:off[id+1]]
	items  []int32
	keysOf [][]uint32
}

// BuildID indexes items [0, n) by their interned key ids. keyIDs[i]
// lists item i's key ids, all < idSpace (the number of distinct keys
// interned). The slice is retained as the index's cached key inversion;
// callers must not mutate it afterwards.
//
// An id listed more than once for an item is indexed once: the item
// enters that bucket once and keyIDs[i] is compacted in place to its
// distinct ids in first-occurrence order. Every walk then meets a pair
// once per key the two items share — what makes a walk's per-candidate
// key count a set-intersection size and keeps a bucket total from adding
// one item's weight twice.
//
// The build is two passes over the lists: the first counts each bucket's
// size (a last-seen stamp per id drops the repeats), the second fills
// the buckets in item order, so every bucket comes out ascending.
func BuildID(n, idSpace int, keyIDs [][]uint32) *IDIndex {
	off := make([]int32, idSpace+1)
	at := make([]int32, idSpace) // pass 1: item+1 that last counted the id; pass 2: the id's fill cursor
	for i := 0; i < n; i++ {
		distinct := keyIDs[i][:0]
		for _, id := range keyIDs[i] {
			if at[id] == int32(i+1) {
				continue
			}
			at[id] = int32(i + 1)
			off[id+1]++
			distinct = append(distinct, id)
		}
		keyIDs[i] = distinct
	}
	for id := 0; id < idSpace; id++ {
		off[id+1] += off[id]
	}
	copy(at, off)
	items := make([]int32, off[idSpace])
	for i := 0; i < n; i++ {
		for _, id := range keyIDs[i] {
			items[at[id]] = int32(i)
			at[id]++
		}
	}
	return &IDIndex{n: n, off: off, items: items, keysOf: keyIDs}
}

// bucket returns key id's items; id must be < KeySpace.
func (ix *IDIndex) bucket(id uint32) []int32 {
	return ix.items[ix.off[id]:ix.off[id+1]:ix.off[id+1]]
}

// Len returns the number of indexed items.
func (ix *IDIndex) Len() int { return ix.n }

// BucketCount returns the number of non-empty buckets (distinct keys
// carried by at least one item).
func (ix *IDIndex) BucketCount() int {
	count := 0
	for id := range ix.KeySpace() {
		if ix.off[id+1] > ix.off[id] {
			count++
		}
	}
	return count
}

// Bucket returns the items carrying the key id, ascending (shared
// slice; do not mutate). An empty bucket, and any id >= the build's
// idSpace, yields nil.
func (ix *IDIndex) Bucket(id uint32) []int32 {
	if int(id) >= ix.KeySpace() || ix.off[id] == ix.off[id+1] {
		return nil
	}
	return ix.bucket(id)
}

// KeyIDs returns the build input: every item's key ids, indexed by item
// (shared; do not mutate).
func (ix *IDIndex) KeyIDs() [][]uint32 { return ix.keysOf }

// KeySpace returns the build's idSpace — the length of any slice
// indexed by key id, such as BucketWeightTotals' destination.
func (ix *IDIndex) KeySpace() int { return len(ix.off) - 1 }

// MaxBucket returns the size of the largest bucket.
func (ix *IDIndex) MaxBucket() int {
	best := int32(0)
	for id := range ix.KeySpace() {
		best = max(best, ix.off[id+1]-ix.off[id])
	}
	return int(best)
}

// ForEachBucket calls fn for every non-empty bucket in increasing id
// order.
func (ix *IDIndex) ForEachBucket(fn func(id uint32, items []int32)) {
	for id := range ix.KeySpace() {
		if ix.off[id+1] > ix.off[id] {
			fn(uint32(id), ix.bucket(uint32(id)))
		}
	}
}

// BucketWeightTotals fills dst (grown as needed, one slot per key id)
// with the total item weight of every bucket and returns it; passing a
// previous call's slice back in reuses its storage. The totals feed a
// cheap upper bound: an item's neighbour weight is at most Σ over its
// keys of (bucket total − own weight), since that sum only overcounts.
func (ix *IDIndex) BucketWeightTotals(weight func(i int) float64, dst []float64) []float64 {
	ks := ix.KeySpace()
	if cap(dst) < ks {
		dst = make([]float64, ks)
	}
	dst = dst[:ks]
	for id := range dst {
		var t float64
		for _, i := range ix.bucket(uint32(id)) {
			t += weight(int(i))
		}
		dst[id] = t
	}
	return dst
}

// ForEachPair enumerates every distinct unordered pair of items sharing
// at least one key, as (i, j) with i < j, each pair exactly once; fn
// returning false stops the walk. Cost is Σ_buckets |b|² stamp
// operations, but each expensive downstream evaluation runs once per
// distinct pair; the walk allocates only its stamp.
func (ix *IDIndex) ForEachPair(fn func(i, j int) bool) {
	stamp := NewStamp(ix.n)
	for i := 0; i < ix.n; i++ {
		stamp.Reset()
		stamp.Visit(i)
		for _, k := range ix.keysOf[i] {
			for _, j := range ix.bucket(k) {
				if int(j) <= i {
					continue
				}
				if stamp.Visit(int(j)) {
					continue
				}
				if !fn(i, int(j)) {
					return
				}
			}
		}
	}
}

// PairCount returns the number of distinct candidate pairs (the size of
// the canopy join ForEachPair would enumerate), counted directly from
// per-item dedup'd bucket walks — no callback dispatch per pair.
func (ix *IDIndex) PairCount() int {
	stamp := NewStamp(ix.n)
	count := 0
	for i := 0; i < ix.n; i++ {
		stamp.Reset()
		stamp.Visit(i)
		for _, k := range ix.keysOf[i] {
			for _, j := range ix.bucket(k) {
				if int(j) > i && !stamp.Visit(int(j)) {
					count++
				}
			}
		}
	}
	return count
}

// Stamp is a reusable visited-set over [0, n) with O(1) reset.
type Stamp struct {
	mark []int32
	cur  int32
}

// NewStamp returns a Stamp for n items.
func NewStamp(n int) *Stamp { return &Stamp{mark: make([]int32, n)} }

// Reset clears the stamp in O(1).
func (s *Stamp) Reset() {
	s.cur++
	if s.cur == 0 { // wrapped; clear explicitly
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.cur = 1
	}
}

// Visit marks i and reports whether i was already marked since Reset.
func (s *Stamp) Visit(i int) bool {
	if s.mark[i] == s.cur {
		return true
	}
	s.mark[i] = s.cur
	return false
}
