// Package index provides the inverted index used to generate candidate
// pairs for blocking-key predicates without an O(n²) scan. Items are
// integers [0, n) (record or group IDs); each item carries a list of
// interned blocking-key ids, and only items sharing a key can possibly
// satisfy the predicate (the completeness contract of predicate.P.Keys).
package index

// IDIndex is an inverted index from interned blocking-key ids (dense
// uint32 ids from an intern.Table) to the items carrying them. Buckets
// live in one flat slice indexed by key id, so bucket lookup is an array
// index, and the key inversion (item -> its key ids) is the build input
// itself — ForEachPair and PairCount never re-derive it. Every
// enumeration order is fixed by the build input: items ascending, each
// item's keys in their build order, buckets in insertion order.
type IDIndex struct {
	n       int
	buckets [][]int32
	keysOf  [][]uint32
}

// BuildID indexes items [0, n) by their interned key ids. keyIDs[i]
// lists item i's key ids, all < idSpace (typically intern.Table.Len()
// after interning every key). The slice is retained as the index's
// cached key inversion; callers must not mutate it afterwards.
//
// An id listed more than once for an item is indexed once: the item
// enters that bucket once and keyIDs[i] is compacted in place to its
// distinct ids in first-occurrence order. Every walk then meets a pair
// once per key the two items share — what makes CandidatesCounted's
// counts set-intersection sizes and keeps a bucket total from adding one
// item's weight twice.
func BuildID(n, idSpace int, keyIDs [][]uint32) *IDIndex {
	ix := &IDIndex{n: n, buckets: make([][]int32, idSpace), keysOf: keyIDs}
	for i := 0; i < n; i++ {
		distinct := keyIDs[i][:0]
		for _, id := range keyIDs[i] {
			b := ix.buckets[id]
			if len(b) > 0 && b[len(b)-1] == int32(i) {
				continue // items arrive ascending, so a repeat is the bucket's tail
			}
			ix.buckets[id] = append(b, int32(i))
			distinct = append(distinct, id)
		}
		keyIDs[i] = distinct
	}
	return ix
}

// Len returns the number of indexed items.
func (ix *IDIndex) Len() int { return ix.n }

// BucketCount returns the number of non-empty buckets (distinct keys
// carried by at least one item).
func (ix *IDIndex) BucketCount() int {
	count := 0
	for _, b := range ix.buckets {
		if len(b) > 0 {
			count++
		}
	}
	return count
}

// Bucket returns the items carrying the key id (shared slice; do not
// mutate). Ids >= the build's idSpace yield an empty bucket.
func (ix *IDIndex) Bucket(id uint32) []int32 {
	if int(id) >= len(ix.buckets) {
		return nil
	}
	return ix.buckets[id]
}

// KeyIDs returns the build input: every item's key ids, indexed by item
// (shared; do not mutate).
func (ix *IDIndex) KeyIDs() [][]uint32 { return ix.keysOf }

// KeySpace returns the build's idSpace — the length of any slice
// indexed by key id, such as BucketWeightTotals' destination.
func (ix *IDIndex) KeySpace() int { return len(ix.buckets) }

// MaxBucket returns the size of the largest bucket.
func (ix *IDIndex) MaxBucket() int {
	best := 0
	for _, b := range ix.buckets {
		if len(b) > best {
			best = len(b)
		}
	}
	return best
}

// ForEachBucket calls fn for every non-empty bucket in increasing id
// order.
func (ix *IDIndex) ForEachBucket(fn func(id uint32, items []int32)) {
	for id, b := range ix.buckets {
		if len(b) > 0 {
			fn(uint32(id), b)
		}
	}
}

// BucketWeightTotals fills dst (grown as needed, one slot per key id)
// with the total item weight of every bucket and returns it; passing a
// previous call's slice back in reuses its storage. The totals feed a
// cheap upper bound: an item's neighbour weight is at most Σ over its
// keys of (bucket total − own weight), since that sum only overcounts.
func (ix *IDIndex) BucketWeightTotals(weight func(i int) float64, dst []float64) []float64 {
	if cap(dst) < len(ix.buckets) {
		dst = make([]float64, len(ix.buckets))
	}
	dst = dst[:len(ix.buckets)]
	for id, b := range ix.buckets {
		var t float64
		for _, i := range b {
			t += weight(int(i))
		}
		dst[id] = t
	}
	return dst
}

// Candidates appends to dst the distinct items sharing at least one of
// the given key ids, excluding self, and returns the extended slice. The
// stamp is reset internally. The enumeration order is the given key
// order, then bucket insertion order.
func (ix *IDIndex) Candidates(self int, keys []uint32, stamp *Stamp, dst []int32) []int32 {
	stamp.Reset()
	if self >= 0 {
		stamp.Visit(self)
	}
	for _, k := range keys {
		for _, j := range ix.buckets[k] {
			if !stamp.Visit(int(j)) {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// CandidatesCounted is Candidates with the visited-set replaced by a
// count per item: it appends the same items in the same order, and for
// each appended j leaves in count[j] how many of the given keys j
// carries — |keys ∩ keys of j| when keys is an item's own list, since
// BuildID keeps every list duplicate-free. count has one slot per item
// and must be all zero on entry; the caller zeroes it over the returned
// items (ClearCounts) once it has read what it needs, which keeps a
// worker's steady state at one slice and no reset pass over all items.
func (ix *IDIndex) CandidatesCounted(self int, keys []uint32, count []int32, dst []int32) []int32 {
	if self >= 0 {
		count[self] = 1 // never first-seen, so never appended
	}
	for _, k := range keys {
		for _, j := range ix.buckets[k] {
			if count[j] == 0 {
				dst = append(dst, j)
			}
			count[j]++
		}
	}
	if self >= 0 {
		count[self] = 0
	}
	return dst
}

// ClearCounts zeroes count over the items a CandidatesCounted call
// returned, restoring its all-zero precondition.
func ClearCounts(count []int32, items []int32) {
	for _, j := range items {
		count[j] = 0
	}
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
			for _, j := range ix.buckets[k] {
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
			for _, j := range ix.buckets[k] {
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
