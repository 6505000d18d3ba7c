package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// build interns the items' string keys in item order and indexes the ids.
func build(keys [][]string) (*IDIndex, map[string]uint32) {
	tab, keyIDs := internKeySets(keys)
	return BuildID(len(keys), len(tab), keyIDs), tab
}

func TestBuildAndBuckets(t *testing.T) {
	keys := [][]string{{"a", "b"}, {"b"}, {"c"}, {}}
	ix, tab := build(keys)
	if ix.Len() != 4 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.BucketCount() != 3 || ix.KeySpace() != 3 {
		t.Errorf("BucketCount = %d, KeySpace = %d, want 3, 3", ix.BucketCount(), ix.KeySpace())
	}
	b := tab["b"]
	if got := ix.Bucket(b); len(got) != 2 {
		t.Errorf("Bucket(b) = %v", got)
	}
	if got := ix.Bucket(uint32(len(tab))); got != nil {
		t.Errorf("missing bucket should be nil, got %v", got)
	}
	if ix.MaxBucket() != 2 {
		t.Errorf("MaxBucket = %d, want 2", ix.MaxBucket())
	}
}

func TestForEachPair(t *testing.T) {
	keys := [][]string{{"a"}, {"a", "b"}, {"b"}, {"c"}}
	ix, _ := build(keys)
	var pairs [][2]int
	ix.ForEachPair(func(i, j int) bool {
		pairs = append(pairs, [2]int{i, j})
		return true
	})
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x][0] != pairs[y][0] {
			return pairs[x][0] < pairs[y][0]
		}
		return pairs[x][1] < pairs[y][1]
	})
	want := [][2]int{{0, 1}, {1, 2}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", pairs, want)
		}
	}
}

func TestForEachPairEarlyStop(t *testing.T) {
	keys := [][]string{{"a"}, {"a"}, {"a"}}
	ix, _ := build(keys)
	count := 0
	ix.ForEachPair(func(_, _ int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d pairs, want 1", count)
	}
}

func TestPairCountMultiKeyDedup(t *testing.T) {
	// Items share two keys; the pair must be counted once.
	keys := [][]string{{"a", "b"}, {"a", "b"}}
	ix, _ := build(keys)
	if got := ix.PairCount(); got != 1 {
		t.Errorf("PairCount = %d, want 1", got)
	}
}

func TestBucketWeightTotals(t *testing.T) {
	keys := [][]string{{"a"}, {"a"}, {"b"}}
	ix, tab := build(keys)
	w := []float64{1, 2, 5}
	totals := ix.BucketWeightTotals(func(i int) float64 { return w[i] }, nil)
	a := tab["a"]
	b := tab["b"]
	if len(totals) != ix.KeySpace() || totals[a] != 3 || totals[b] != 5 {
		t.Errorf("totals = %v", totals)
	}
}

func TestStampReset(t *testing.T) {
	s := NewStamp(3)
	s.Reset()
	if s.Visit(0) {
		t.Error("first visit should be false")
	}
	if !s.Visit(0) {
		t.Error("second visit should be true")
	}
	s.Reset()
	if s.Visit(0) {
		t.Error("after reset visit should be false again")
	}
}

func TestStampWraparound(t *testing.T) {
	s := NewStamp(2)
	s.cur = ^int32(0) - 1 // near wrap
	s.Reset()
	s.Visit(0)
	s.Reset() // wraps to 0 then fixes to 1
	if s.Visit(0) {
		t.Error("visit after wraparound reset should be false")
	}
}

// Property: ForEachPair and PairCount enumerate exactly the
// distinct key-sharing pairs, each once, matching a brute-force
// computation.
func TestForEachPairMatchesBruteForce(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		universe := []string{"k0", "k1", "k2", "k3", "k4"}
		keys := make([][]string, n)
		for i := range keys {
			for _, k := range universe {
				if r.Intn(3) == 0 {
					keys[i] = append(keys[i], k)
				}
			}
		}
		ix, _ := build(keys)
		got := map[[2]int]int{}
		ix.ForEachPair(func(i, j int) bool {
			if i >= j {
				return false
			}
			got[[2]int{i, j}]++
			return true
		})
		want := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				share := false
				for _, a := range keys[i] {
					for _, b := range keys[j] {
						if a == b {
							share = true
						}
					}
				}
				if share {
					want[[2]int{i, j}] = true
				}
			}
		}
		if len(got) != len(want) || ix.PairCount() != len(want) {
			return false
		}
		for p, c := range got {
			if c != 1 || !want[p] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
