package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomKeySets builds n random key lists over a vocabulary of vocab
// string keys, with up to maxKeys keys per item (duplicates possible,
// like real blocking-key lists).
func randomKeySets(r *rand.Rand, n, vocab, maxKeys int) [][]string {
	keys := make([][]string, n)
	for i := range keys {
		for k := r.Intn(maxKeys + 1); k > 0; k-- {
			keys[i] = append(keys[i], fmt.Sprintf("key%03d", r.Intn(vocab)))
		}
	}
	return keys
}

// internKeySets interns every item's keys in item order into a table of
// its own, each item's ids a window of one flat buffer, as
// predicate.P.Block does, returning the table and the per-item id lists.
func internKeySets(keys [][]string) (map[string]uint32, [][]uint32) {
	tab := make(map[string]uint32, len(keys))
	var flat []uint32
	ends := make([]int, len(keys))
	for i, ks := range keys {
		for _, k := range ks {
			id, ok := tab[k]
			if !ok {
				id = uint32(len(tab))
				tab[k] = id
			}
			flat = append(flat, id)
		}
		ends[i] = len(flat)
	}
	keyIDs := make([][]uint32, len(keys))
	start := 0
	for i, end := range ends {
		keyIDs[i] = flat[start:end]
		start = end
	}
	return tab, keyIDs
}

// TestIDIndexPairOrderDeterministic: the id walk enumerates item-major
// with each item's keys in build order — the same sequence every time.
func TestIDIndexPairOrderDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keys := randomKeySets(r, 40, 12, 3)
	ix, _ := build(keys)
	var ref [][2]int
	ix.ForEachPair(func(i, j int) bool { ref = append(ref, [2]int{i, j}); return true })
	for trial := 0; trial < 5; trial++ {
		at := 0
		ix.ForEachPair(func(i, j int) bool {
			if ref[at] != [2]int{i, j} {
				t.Fatalf("trial %d: pair %d = (%d,%d), want %v", trial, at, i, j, ref[at])
			}
			at++
			return true
		})
		if at != len(ref) {
			t.Fatalf("trial %d: walked %d pairs, want %d", trial, at, len(ref))
		}
	}
}

// TestIDIndexForEachPairEarlyStop: the walk stops at the pair fn
// refuses, not only at the first.
func TestIDIndexForEachPairEarlyStop(t *testing.T) {
	keyIDs := [][]uint32{{0}, {0}, {0}}
	ix := BuildID(3, 1, keyIDs)
	count := 0
	ix.ForEachPair(func(i, j int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop walked %d pairs, want 2", count)
	}
}

// BenchmarkIndexBuild measures interning plus the id-keyed build, as
// every pipeline phase pays them (predicate.P.Block).
func BenchmarkIndexBuild(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	keys := randomKeySets(r, 2000, 400, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(keys)
	}
}

// TestBuildIDDropsRepeatedKeys: an item that lists a key twice enters
// that bucket once and keeps the key once, at its first position — the
// index is what a duplicate-free build gives.
func TestBuildIDDropsRepeatedKeys(t *testing.T) {
	ix, tab := build([][]string{{"a", "b", "a"}, {"b", "b"}, {"a"}})
	ref, _ := build([][]string{{"a", "b"}, {"b"}, {"a"}})
	for _, key := range []string{"a", "b"} {
		id := tab[key]
		if got, want := ix.Bucket(id), ref.Bucket(id); !reflect.DeepEqual(got, want) {
			t.Errorf("bucket %q = %v, want %v", key, got, want)
		}
	}
	if !reflect.DeepEqual(ix.KeyIDs(), ref.KeyIDs()) {
		t.Errorf("KeyIDs = %v, want %v", ix.KeyIDs(), ref.KeyIDs())
	}
	if ix.PairCount() != ref.PairCount() {
		t.Errorf("PairCount = %d, want %d", ix.PairCount(), ref.PairCount())
	}
}

// stampCandidates is the visited-set form of the candidate walk: the
// items sharing one of keys, excluding self, keys in order and each
// bucket ascending, a Stamp dropping the repeats.
func stampCandidates(ix *IDIndex, self int, keys []uint32, stamp *Stamp) []int32 {
	var dst []int32
	stamp.Reset()
	stamp.Visit(self)
	for _, k := range keys {
		for _, j := range ix.Bucket(k) {
			if !stamp.Visit(int(j)) {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// TestCandidatesCounted: on random key lists (repeats included) the
// counted walk returns the stamp walk's list in its order, leaves in
// count the number of distinct keys each candidate shares with the item,
// touches no other slot, and ClearCounts restores the all-zero state.
func TestCandidatesCounted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		keys := randomKeySets(r, 60, 15, 6)
		ix, _ := build(keys)
		stamp := NewStamp(ix.Len())
		count := make([]int32, ix.Len())
		sets := make([]map[string]bool, len(keys))
		for i, ks := range keys {
			sets[i] = map[string]bool{}
			for _, k := range ks {
				sets[i][k] = true
			}
		}
		for i := range keys {
			want := stampCandidates(ix, i, ix.KeyIDs()[i], stamp)
			got := ix.CandidatesCounted(i, ix.KeyIDs()[i], count, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d item %d: counted walk %v, stamp walk %v", trial, i, got, want)
			}
			listed := map[int32]bool{}
			for _, j := range got {
				listed[j] = true
				shared := 0
				for k := range sets[i] {
					if sets[j][k] {
						shared++
					}
				}
				if int(count[j]) != shared {
					t.Fatalf("trial %d pair (%d, %d): count %d, want %d shared keys", trial, i, j, count[j], shared)
				}
			}
			for j, c := range count {
				if c != 0 && !listed[int32(j)] {
					t.Fatalf("trial %d item %d: count[%d] = %d for an item not returned", trial, i, j, c)
				}
			}
			ClearCounts(count, got)
			for j, c := range count {
				if c != 0 {
					t.Fatalf("trial %d item %d: count[%d] = %d after ClearCounts", trial, i, j, c)
				}
			}
		}
	}
}

// refIndex is the bucket-per-key builder the CSR layout replaced: one
// slice per key id, appended to in item order. TestIDIndexMatchesReference
// holds every IDIndex method to it.
type refIndex struct {
	n       int
	buckets [][]int32
	keysOf  [][]uint32
}

func buildRef(n, idSpace int, keyIDs [][]uint32) *refIndex {
	ix := &refIndex{n: n, buckets: make([][]int32, idSpace), keysOf: keyIDs}
	for i := 0; i < n; i++ {
		distinct := keyIDs[i][:0]
		for _, id := range keyIDs[i] {
			b := ix.buckets[id]
			if len(b) > 0 && b[len(b)-1] == int32(i) {
				continue
			}
			ix.buckets[id] = append(b, int32(i))
			distinct = append(distinct, id)
		}
		keyIDs[i] = distinct
	}
	return ix
}

func (ix *refIndex) bucket(id uint32) []int32 {
	if int(id) >= len(ix.buckets) {
		return nil
	}
	return ix.buckets[id]
}

func (ix *refIndex) bucketCount() (count, largest int) {
	for _, b := range ix.buckets {
		if len(b) > 0 {
			count++
		}
		largest = max(largest, len(b))
	}
	return count, largest
}

func (ix *refIndex) candidates(self int, keys []uint32) (cand []int32, count []int32) {
	count = make([]int32, ix.n)
	for _, k := range keys {
		for _, j := range ix.buckets[k] {
			if int(j) == self {
				continue
			}
			if count[j] == 0 {
				cand = append(cand, j)
			}
			count[j]++
		}
	}
	return cand, count
}

func (ix *refIndex) pairs() [][2]int {
	var out [][2]int
	seen := map[[2]int]bool{}
	for i := 0; i < ix.n; i++ {
		for _, k := range ix.keysOf[i] {
			for _, j := range ix.buckets[k] {
				if p := [2]int{i, int(j)}; int(j) > i && !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// TestIDIndexMatchesReference: on random id lists — repeated ids, empty
// lists, ids no item carries, an id space past the largest id used —
// the CSR index answers every query exactly as the bucket-per-key
// reference: buckets (out of range too), the compacted key lists, the
// key space, bucket count and largest bucket, ForEachBucket's sequence,
// bucket weight totals, both candidate walks (with and without a self,
// counts included), ForEachPair's sequence and PairCount.
func TestIDIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n, idSpace := r.Intn(40), 1+r.Intn(30)
		lists := make([][]uint32, n)
		used := r.Intn(idSpace) + 1 // ids [used, idSpace) are never carried
		for i := range lists {
			if r.Intn(5) == 0 {
				continue // an item with no keys
			}
			for c := r.Intn(8); c > 0; c-- {
				lists[i] = append(lists[i], uint32(r.Intn(used)))
			}
		}
		clone := func() [][]uint32 {
			out := make([][]uint32, n)
			for i, l := range lists {
				out[i] = append([]uint32(nil), l...)
			}
			return out
		}
		ix, ref := BuildID(n, idSpace, clone()), buildRef(n, idSpace, clone())
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (n=%d idSpace=%d lists=%v): %s", trial, n, idSpace, lists, fmt.Sprintf(format, args...))
		}
		for id := uint32(0); id < uint32(idSpace+3); id++ {
			if got, want := ix.Bucket(id), ref.bucket(id); !reflect.DeepEqual(got, want) {
				fail("Bucket(%d) = %v, want %v", id, got, want)
			}
		}
		if !reflect.DeepEqual(ix.KeyIDs(), ref.keysOf) {
			fail("KeyIDs = %v, want %v", ix.KeyIDs(), ref.keysOf)
		}
		count, largest := ref.bucketCount()
		if ix.Len() != n || ix.KeySpace() != idSpace || ix.BucketCount() != count || ix.MaxBucket() != largest {
			fail("Len, KeySpace, BucketCount, MaxBucket = %d, %d, %d, %d, want %d, %d, %d, %d",
				ix.Len(), ix.KeySpace(), ix.BucketCount(), ix.MaxBucket(), n, idSpace, count, largest)
		}
		var walked, wantWalk []string
		ix.ForEachBucket(func(id uint32, items []int32) { walked = append(walked, fmt.Sprint(id, items)) })
		for id, b := range ref.buckets {
			if len(b) > 0 {
				wantWalk = append(wantWalk, fmt.Sprint(id, b))
			}
		}
		if !reflect.DeepEqual(walked, wantWalk) {
			fail("ForEachBucket walked %v, want %v", walked, wantWalk)
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		totals := ix.BucketWeightTotals(func(i int) float64 { return w[i] }, nil)
		for id, b := range ref.buckets {
			var want float64
			for _, i := range b {
				want += w[i]
			}
			if totals[id] != want {
				fail("bucket %d total %v, want %v", id, totals[id], want)
			}
		}
		counts := make([]int32, n)
		for self := -1; self < n; self++ {
			var keys []uint32
			if self >= 0 {
				keys = ix.KeyIDs()[self]
			} else {
				for c := r.Intn(6); c > 0; c-- {
					keys = append(keys, uint32(r.Intn(idSpace)))
				}
			}
			wantCand, wantCount := ref.candidates(self, keys)
			got := ix.CandidatesCounted(self, keys, counts, nil)
			if !reflect.DeepEqual(got, wantCand) || !reflect.DeepEqual(counts, wantCount) {
				fail("CandidatesCounted(%d, %v) = %v counts %v, want %v counts %v", self, keys, got, counts, wantCand, wantCount)
			}
			ClearCounts(counts, got)
		}
		var pairs [][2]int
		ix.ForEachPair(func(i, j int) bool { pairs = append(pairs, [2]int{i, j}); return true })
		if want := ref.pairs(); !reflect.DeepEqual(pairs, want) || ix.PairCount() != len(want) {
			fail("ForEachPair = %v (PairCount %d), want %v", pairs, ix.PairCount(), want)
		}
	}
}
