// Package score implements the grouping score functions of the paper (§5.1):
// the correlation-clustering objective (Eq. 1) composed from signed
// pairwise scores P, its per-group decomposition Group_Score (Eq. 2), a
// dense cached pair matrix for small working sets, and a banded segment
// scorer used by the segmentation DP over a linear embedding.
package score

import (
	"sync"

	"topkdedup/internal/parallel"
)

// PairFunc returns the signed duplicate score of items i and j of a
// working set: positive means duplicate, negative non-duplicate, the
// magnitude is the confidence. Implementations must be symmetric.
type PairFunc func(i, j int) float64

// Matrix is a dense symmetric pair-score cache with triangular storage.
// The diagonal is implicitly 0.
type Matrix struct {
	n    int
	v    []float64
	back *matrixBacking
}

// NewMatrixWorkers evaluates f on every unordered pair of [0, n) and
// caches the results — use only for small working sets (O(n²) memory).
// The fill is spread over a worker pool (workers <= 0 means all CPUs, 1
// is serial), one task per row — every
// cell is written by exactly one row, so the matrix is identical at
// every worker count. f must be symmetric and, when workers != 1, safe
// for concurrent use.
func NewMatrixWorkers(n int, f PairFunc, workers int) *Matrix {
	sz := n * (n - 1) / 2
	v := matrixPool.Get().(*matrixBacking)
	if cap(v.f) < sz {
		v.f = make([]float64, sz)
	}
	m := &Matrix{n: n, v: v.f[:sz], back: v}
	// No clearing: the fill below writes every cell.
	parallel.For(workers, n, func(i int) {
		for j := i + 1; j < n; j++ {
			m.v[m.idx(i, j)] = f(i, j)
		}
	})
	return m
}

// matrixBacking is the pooled storage behind a Matrix.
type matrixBacking struct{ f []float64 }

var matrixPool = sync.Pool{New: func() any { return &matrixBacking{} }}

// Release returns the matrix's pooled backing storage; the matrix must
// not be used afterwards. Optional — an unreleased matrix is ordinary
// garbage — and a second Release is a no-op.
func (m *Matrix) Release() {
	b := m.back
	if b == nil {
		return
	}
	m.back = nil
	m.v = nil
	matrixPool.Put(b)
}

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major upper triangle: row i starts at i*n - i*(i+1)/2 - i ... use
	// the standard closed form.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// N returns the working-set size.
func (m *Matrix) N() int { return m.n }

// At returns the cached score of (i, j); 0 when i == j.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.v[m.idx(i, j)]
}

// Func returns the matrix's lookup as a PairFunc.
func (m *Matrix) Func() PairFunc { return m.At }

// GroupScore computes the paper's Group_Score(c, D−c) for one group under
// the correlation-clustering objective of Eq. 1. Following the paper's
// ordered-pair convention, positive pair scores inside the group count
// once per ordered pair (i.e. twice per unordered pair), and negative
// scores from group members to everything outside are subtracted once from
// this group's side (the other group subtracts them again, so a full
// partition rewards each cross negative edge twice). members lists the
// item indices of the group; all other indices of the matrix are outside.
func GroupScore(m *Matrix, members []int) float64 {
	inGroup := make([]bool, m.n)
	for _, x := range members {
		inGroup[x] = true
	}
	var s float64
	for ai, a := range members {
		for _, b := range members[ai+1:] {
			if p := m.At(a, b); p > 0 {
				s += 2 * p
			}
		}
		for b := 0; b < m.n; b++ {
			if inGroup[b] {
				continue
			}
			if p := m.At(a, b); p < 0 {
				s -= p
			}
		}
	}
	return s
}

// CCScore computes the correlation-clustering score (Eq. 1) of a complete
// partition: Σ over groups of GroupScore. Maximising it is equivalent to
// maximising Σ over same-group unordered pairs of P(i, j), since
// CCScore = 2·(withinPos + withinNeg) − 2·(total negative mass) and the
// last term is partition-independent. clusters must partition [0, n).
func CCScore(m *Matrix, clusters [][]int) float64 {
	var s float64
	for _, c := range clusters {
		s += GroupScore(m, c)
	}
	return s
}
