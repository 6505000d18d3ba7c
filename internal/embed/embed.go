// Package embed implements the linear embedding of §5.3.1: order the
// working set so potential duplicates are adjacent, enabling the
// segmentation DP to consider only contiguous groups. The main algorithm
// is the paper's greedy method (Eq. 3): repeatedly append the item with
// the highest distance-decayed similarity to the already-placed items,
//
//	π_i = argmax_k Σ_{j<i} P(π_j, c_k) · α^{i−j−1}
//
// maintained incrementally in O((n + m)·log-free) time via lazily decayed
// accumulators, where m is the number of candidate edges.
package embed

import (
	"math"
	"math/rand"
	"sort"

	"topkdedup/internal/score"
)

// Edge is a candidate pair; pairs not listed are assumed to score <= 0
// and never attract items together.
type Edge struct {
	A, B int
}

// Alpha is Eq. 3's distance-decay factor α, in (0, 1): an item placed
// d positions back attracts with weight α^d.
const Alpha = 0.7

// Greedy returns a permutation of [0, n): order[pos] = item. Ties and
// fresh-cluster starts are broken deterministically (lowest item id with
// the highest total positive mass first).
func Greedy(n int, pf score.PairFunc, edges []Edge) []int {
	adj := make([][]int, n)
	posMass := make([]float64, n)
	for _, e := range edges {
		if e.A == e.B {
			continue
		}
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
		if p := pf(e.A, e.B); p > 0 {
			posMass[e.A] += p
			posMass[e.B] += p
		}
	}
	// Unplaced items ordered by (posMass desc, id asc) for fresh starts.
	fresh := make([]int, n)
	for i := range fresh {
		fresh[i] = i
	}
	sortByMass(fresh, posMass)
	freshPtr := 0

	placed := make([]bool, n)
	// Lazily decayed accumulator: value val[k] was correct at step
	// stamp[k]; the effective value at step t is val[k] * alpha^(t-stamp).
	val := make([]float64, n)
	stamp := make([]int, n)
	inTouched := make([]bool, n)
	var touched []int

	order := make([]int, 0, n)
	place := func(v int, t int) {
		placed[v] = true
		order = append(order, v)
		for _, u := range adj[v] {
			if placed[u] {
				continue
			}
			// Decay to now, then add the new contribution. Eq. 3 weighs
			// *similarity*, so only positive evidence attracts; letting
			// negative scores accumulate would push an item's own
			// cluster-mates below the fresh-start threshold whenever a
			// rival cluster was placed just before them, interleaving
			// clusters in the ordering.
			p := pf(v, u)
			if p <= 0 {
				continue
			}
			val[u] = val[u]*math.Pow(Alpha, float64(t-stamp[u])) + p
			stamp[u] = t
			if !inTouched[u] {
				inTouched[u] = true
				touched = append(touched, u)
			}
		}
	}

	for t := 0; t < n; t++ {
		// Best touched candidate by effective value.
		best, bestVal := -1, 0.0
		w := touched[:0]
		for _, k := range touched {
			if placed[k] {
				inTouched[k] = false
				continue
			}
			w = append(w, k)
			eff := val[k] * math.Pow(Alpha, float64(t-stamp[k]))
			if eff > bestVal || (eff == bestVal && best != -1 && k < best) {
				if eff > 0 {
					best, bestVal = k, eff
				}
			}
		}
		touched = w
		if best == -1 {
			// No attracted candidate: start a fresh cluster at the densest
			// unplaced item.
			for freshPtr < n && placed[fresh[freshPtr]] {
				freshPtr++
			}
			best = fresh[freshPtr]
		}
		place(best, t)
	}
	return order
}

func sortByMass(ids []int, mass []float64) {
	sort.Slice(ids, func(a, b int) bool {
		if mass[ids[a]] != mass[ids[b]] {
			return mass[ids[a]] > mass[ids[b]]
		}
		return ids[a] < ids[b]
	})
}

// Identity returns the identity permutation — the "no embedding" baseline
// for ablations.
func Identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// Random returns a seeded random permutation — the worst-case ordering
// baseline for ablations.
func Random(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// Cost evaluates the linear-arrangement objective Σ_{i<j} |pos_i − pos_j| ·
// max(P, 0) over the candidate edges — the quantity Eq. 3's greedy
// heuristic tries to keep small. Lower is better.
func Cost(order []int, pf score.PairFunc, edges []Edge) float64 {
	pos := make([]int, len(order))
	for p, item := range order {
		pos[item] = p
	}
	var c float64
	for _, e := range edges {
		if p := pf(e.A, e.B); p > 0 {
			d := pos[e.A] - pos[e.B]
			if d < 0 {
				d = -d
			}
			c += float64(d) * p
		}
	}
	return c
}
