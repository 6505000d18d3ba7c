package cluster

import (
	"math"

	"topkdedup/internal/score"
)

// Linkage selects the inter-cluster similarity update rule for
// agglomerative clustering.
type Linkage int

// Supported linkage rules.
const (
	SingleLink Linkage = iota
	AverageLink
	CompleteLink
)

// Merge records one agglomeration step. Leaves are node ids [0, n);
// internal node i (0-based over merges) has id n+i.
type Merge struct {
	A, B int
	Sim  float64
}

// Dendrogram is the binary merge tree produced by Agglomerative
// clustering — the hierarchical grouping structure of the paper's §5.2.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Agglomerative builds a full hierarchy over [0, n) by repeatedly merging
// the pair of clusters with the highest linkage similarity (naive O(n³),
// intended for final-phase working sets). Pair scores come from pf; the
// hierarchy is built on raw signed scores, so merges above similarity 0
// join likely duplicates first.
func Agglomerative(n int, pf score.PairFunc, link Linkage) *Dendrogram {
	d := &Dendrogram{N: n}
	if n == 0 {
		return d
	}
	// active cluster list; each holds node id and size.
	type clus struct {
		id   int
		size int
	}
	active := make([]clus, n)
	for i := range active {
		active[i] = clus{id: i, size: 1}
	}
	// similarity matrix over active positions.
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := range sim[i] {
			if i != j {
				sim[i][j] = pf(i, j)
			}
		}
	}
	nextID := n
	for len(active) > 1 {
		// Find best pair (deterministic tie-break on indices).
		bi, bj, best := 0, 1, math.Inf(-1)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if sim[i][j] > best {
					bi, bj, best = i, j, sim[i][j]
				}
			}
		}
		d.Merges = append(d.Merges, Merge{A: active[bi].id, B: active[bj].id, Sim: best})
		ni, nj := float64(active[bi].size), float64(active[bj].size)
		merged := clus{id: nextID, size: active[bi].size + active[bj].size}
		nextID++
		// Lance-Williams update into position bi, then delete bj.
		for k := 0; k < len(active); k++ {
			if k == bi || k == bj {
				continue
			}
			var s float64
			switch link {
			case SingleLink:
				s = math.Max(sim[bi][k], sim[bj][k])
			case CompleteLink:
				s = math.Min(sim[bi][k], sim[bj][k])
			default: // AverageLink
				s = (ni*sim[bi][k] + nj*sim[bj][k]) / (ni + nj)
			}
			sim[bi][k], sim[k][bi] = s, s
		}
		active[bi] = merged
		last := len(active) - 1
		active[bj] = active[last]
		active = active[:last]
		for k := 0; k < len(active); k++ {
			sim[bj][k], sim[k][bj] = sim[last][k], sim[k][last]
		}
	}
	return d
}

// children maps internal node id -> its two children.
func (d *Dendrogram) children() map[int][2]int {
	ch := make(map[int][2]int, len(d.Merges))
	for i, m := range d.Merges {
		ch[d.N+i] = [2]int{m.A, m.B}
	}
	return ch
}

// LeafOrder returns the leaves in dendrogram order (left-to-right walk of
// the merge tree) — the linear ordering the segmentation model subsumes
// (§5.3: "we can always start from the linear ordering imposed by the
// hierarchy").
func (d *Dendrogram) LeafOrder() []int {
	if d.N == 0 {
		return nil
	}
	if len(d.Merges) == 0 {
		order := make([]int, d.N)
		for i := range order {
			order[i] = i
		}
		return order
	}
	ch := d.children()
	root := d.N + len(d.Merges) - 1
	order := make([]int, 0, d.N)
	var walk func(node int)
	walk = func(node int) {
		if node < d.N {
			order = append(order, node)
			return
		}
		c := ch[node]
		walk(c[0])
		walk(c[1])
	}
	walk(root)
	return order
}
