package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topkdedup/internal/intern"
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

// internKeySets interns every item's keys in item order, as the pipeline
// phases do, returning the table and the per-item id lists.
func internKeySets(keys [][]string) (*intern.Table, [][]uint32) {
	tab := intern.New()
	keyIDs := make([][]uint32, len(keys))
	for i, ks := range keys {
		keyIDs[i] = tab.InternAll(nil, ks)
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
// every pipeline phase pays them.
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
		id, _ := tab.Lookup(key)
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

// TestCandidatesCounted: on random key lists (repeats included) the
// counted walk returns Candidates' list in Candidates' order, leaves in
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
			want := ix.Candidates(i, ix.KeyIDs()[i], stamp, nil)
			got := ix.CandidatesCounted(i, ix.KeyIDs()[i], count, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d item %d: counted walk %v, Candidates %v", trial, i, got, want)
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
