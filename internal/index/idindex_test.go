package index

import (
	"fmt"
	"math/rand"
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
