package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// toy matrix over 4 items: {0,1} strongly positive, {2,3} positive,
// cross pairs negative.
func toyMatrix() *Matrix {
	scores := map[[2]int]float64{
		{0, 1}: 2, {2, 3}: 1,
		{0, 2}: -1, {0, 3}: -1, {1, 2}: -1, {1, 3}: -0.5,
	}
	return NewMatrixWorkers(4, func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return scores[[2]int{i, j}]
	}, 1)
}

func TestMatrixAt(t *testing.T) {
	m := toyMatrix()
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 {
		t.Error("At should be symmetric")
	}
	if m.At(2, 2) != 0 {
		t.Error("diagonal should be 0")
	}
	if m.Func()(1, 3) != -0.5 {
		t.Error("Func lookup wrong")
	}
}

func TestGroupScore(t *testing.T) {
	m := toyMatrix()
	// Group {0,1}: within positive 2 counted twice; cross negatives from
	// 0 and 1 to 2,3: -1, -1, -1, -0.5 subtracted.
	got := GroupScore(m, []int{0, 1})
	want := 2*2.0 + 3.5
	if got != want {
		t.Errorf("GroupScore({0,1}) = %v, want %v", got, want)
	}
	// Singleton group: only cross negatives.
	if got := GroupScore(m, []int{3}); got != 1.5 {
		t.Errorf("GroupScore({3}) = %v, want 1.5", got)
	}
}

func TestCCScoreBestPartition(t *testing.T) {
	m := toyMatrix()
	good := CCScore(m, [][]int{{0, 1}, {2, 3}})
	allOne := CCScore(m, [][]int{{0, 1, 2, 3}})
	singletons := CCScore(m, [][]int{{0}, {1}, {2}, {3}})
	if good <= allOne || good <= singletons {
		t.Errorf("intended partition should win: good=%v allOne=%v singles=%v",
			good, allOne, singletons)
	}
}

// Property: CCScore(P) = 2*(withinPos+withinNeg) - 2*totalNeg, i.e.
// maximising CCScore is the same as maximising Σ same-group P, and
// CCScore decomposes as the sum of GroupScores.
func TestCCScoreIdentity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		m := NewMatrixWorkers(n, func(i, j int) float64 { return r.Float64()*4 - 2 }, 1)
		// Random partition.
		assign := make([]int, n)
		for i := range assign {
			assign[i] = r.Intn(3)
		}
		byG := map[int][]int{}
		for i, g := range assign {
			byG[g] = append(byG[g], i)
		}
		var clusters [][]int
		for _, c := range byG {
			clusters = append(clusters, c)
		}
		var within, totalNeg float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := m.At(i, j)
				if p < 0 {
					totalNeg += p
				}
				if assign[i] == assign[j] {
					within += p
				}
			}
		}
		want := 2*within - 2*totalNeg
		got := CCScore(m, clusters)
		return math.Abs(got-want) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSegmentScorerMatchesGroupScore(t *testing.T) {
	// With full width and identity ordering, SegmentScorer.Score(i,j)
	// must equal GroupScore of the contiguous members.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		m := NewMatrixWorkers(n, func(i, j int) float64 { return r.Float64()*4 - 2 }, 1)
		sc := NewSegmentScorer(n, n, m.At, nil)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				members := make([]int, 0, j-i+1)
				for x := i; x <= j; x++ {
					members = append(members, x)
				}
				if math.Abs(sc.Score(i, j)-GroupScore(m, members)) > 1e-9 {
					t.Logf("mismatch at [%d,%d]: %v vs %v", i, j,
						sc.Score(i, j), GroupScore(m, members))
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSegmentScorerWidthCap(t *testing.T) {
	m := toyMatrix()
	sc := NewSegmentScorer(4, 2, m.At, nil)
	if sc.MaxWidth() != 2 {
		t.Fatalf("MaxWidth = %d", sc.MaxWidth())
	}
	_ = sc.Score(0, 1) // fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for segment wider than MaxWidth")
		}
	}()
	sc.Score(0, 2)
}

func TestSegmentScorerExplicitNegAll(t *testing.T) {
	// Supplying negAll shifts cross-negative accounting: with all-zero
	// negAll, scores reduce to 2*posIn - (-2*negIn)... verify against a
	// hand computation on a 3-item chain.
	pf := func(i, j int) float64 {
		if j-i == 1 {
			return 1 // adjacent positive
		}
		return -2 // distant negative
	}
	negAll := []float64{0, 0, 0}
	sc := NewSegmentScorer(3, 3, pf, negAll)
	// Segment [0,2]: posIn = 1+1 = 2 (pairs (0,1),(1,2)); negIn = -2
	// (pair (0,2)); negAll range = 0. Score = 2*2 - (0 - 2*-2) = 4 - 4 = 0.
	if got := sc.Score(0, 2); got != 0 {
		t.Errorf("Score(0,2) with zero negAll = %v, want 0", got)
	}
	// Default negAll (derived): negAll(0) = -2, negAll(2) = -2 (pair 0-2).
	sc2 := NewSegmentScorer(3, 3, pf, nil)
	// Segment [0,2]: negAll range = -4, cross = -4 - 2*(-2) = 0, score 4.
	if got := sc2.Score(0, 2); got != 4 {
		t.Errorf("Score(0,2) with derived negAll = %v, want 4", got)
	}
	// Segment [0,1]: posIn 1, negIn 0, negAll range = -2 (item 0 only),
	// cross = -2, score = 2*1 - (-2) = 4.
	if got := sc2.Score(0, 1); got != 4 {
		t.Errorf("Score(0,1) = %v, want 4", got)
	}
}

func TestSegmentScorerSingleton(t *testing.T) {
	m := toyMatrix()
	sc := NewSegmentScorer(4, 4, m.At, nil)
	// Singleton {3}: GroupScore = -(-1 -0.5 + 0) = 1.5
	if got := sc.Score(3, 3); got != 1.5 {
		t.Errorf("singleton score = %v, want 1.5", got)
	}
}

func BenchmarkSegmentScorerBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 500
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = r.Float64()*2 - 1
	}
	pf := func(i, j int) float64 { return vals[i*n+j] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSegmentScorer(n, 32, pf, nil)
	}
}
