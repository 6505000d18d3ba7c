package segment

import (
	"cmp"
	"slices"
	"sort"

	"topkdedup/internal/cluster"
	"topkdedup/internal/score"
)

// This file implements the paper's §5.2 alternative to the linear
// embedding: arrange the records in a hierarchy and enumerate groupings
// as frontiers of the tree, with a leaf-to-root dynamic program finding
// the R highest-scoring frontiers. The paper notes — and
// TestHierarchySubsumedBySegmentation verifies — that the segmentation
// model strictly subsumes this search space: every frontier of the
// hierarchy is a segmentation of its leaf order.

// RankedClusters is one frontier grouping with its score (Eq. 1
// semantics, matching score.GroupScore).
type RankedClusters struct {
	Score    float64
	Clusters [][]int
}

// HierarchyBestR returns the R highest-scoring groupings expressible as
// frontiers of the dendrogram, under the correlation-clustering objective
// induced by pf over the working set [0, n).
func HierarchyBestR(dend *cluster.Dendrogram, pf score.PairFunc, r int) []RankedClusters {
	n := dend.N
	if n == 0 || r < 1 {
		return nil
	}
	// negAll[i] = Σ_j min(pf(i,j), 0): each item's total negative mass,
	// used for the cross-negative term of GroupScore.
	negAll := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p := pf(i, j); p < 0 {
				negAll[i] += p
				negAll[j] += p
			}
		}
	}

	type nodeInfo struct {
		leaves []int
		posIn  float64 // Σ positive pf over internal pairs
		negIn  float64 // Σ negative pf over internal pairs
		best   []RankedClusters
	}
	info := make(map[int]*nodeInfo, n+len(dend.Merges))
	groupScore := func(ni *nodeInfo) float64 {
		var negAllSum float64
		for _, l := range ni.leaves {
			negAllSum += negAll[l]
		}
		cross := negAllSum - 2*ni.negIn
		return 2*ni.posIn - cross
	}
	for leaf := 0; leaf < n; leaf++ {
		ni := &nodeInfo{leaves: []int{leaf}}
		ni.best = []RankedClusters{{Score: groupScore(ni), Clusters: [][]int{{leaf}}}}
		info[leaf] = ni
	}
	for mi, m := range dend.Merges {
		a, b := info[m.A], info[m.B]
		ni := &nodeInfo{
			leaves: append(append([]int{}, a.leaves...), b.leaves...),
			posIn:  a.posIn + b.posIn,
			negIn:  a.negIn + b.negIn,
		}
		for _, la := range a.leaves {
			for _, lb := range b.leaves {
				if p := pf(la, lb); p > 0 {
					ni.posIn += p
				} else {
					ni.negIn += p
				}
			}
		}
		// Candidate frontiers: this node as one whole group, or any
		// combination of the children's frontiers.
		cands := []RankedClusters{{
			Score:    groupScore(ni),
			Clusters: [][]int{append([]int{}, ni.leaves...)},
		}}
		for _, fa := range a.best {
			for _, fb := range b.best {
				clusters := make([][]int, 0, len(fa.Clusters)+len(fb.Clusters))
				clusters = append(clusters, fa.Clusters...)
				clusters = append(clusters, fb.Clusters...)
				cands = append(cands, RankedClusters{Score: fa.Score + fb.Score, Clusters: clusters})
			}
		}
		sort.SliceStable(cands, func(x, y int) bool { return cands[x].Score > cands[y].Score })
		if len(cands) > r {
			cands = cands[:r]
		}
		ni.best = cands
		info[n+mi] = ni
	}
	root := n + len(dend.Merges) - 1
	if len(dend.Merges) == 0 {
		root = 0
		// Multiple disconnected leaves only happen with n == 1 here
		// (Agglomerative always merges to a single root for n > 1).
	}
	out := info[root].best
	for i := range out {
		for _, c := range out[i].Clusters {
			sort.Ints(c)
		}
		// Clusters are disjoint, so their least members are distinct.
		slices.SortFunc(out[i].Clusters, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	}
	return out
}
