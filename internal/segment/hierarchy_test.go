package segment

import (
	"math"
	"math/rand"
	"testing"

	"topkdedup/internal/cluster"
	"topkdedup/internal/score"
)

func randPF(seed int64, n int) score.PairFunc {
	r := rand.New(rand.NewSource(seed))
	vals := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()*4 - 2
			vals[i*n+j], vals[j*n+i] = v, v
		}
	}
	return func(i, j int) float64 { return vals[i*n+j] }
}

func groupingScore(pf score.PairFunc, n int, clusters [][]int) float64 {
	m := score.NewMatrixWorkers(n, pf, 1)
	return score.CCScore(m, clusters)
}

func TestHierarchyBestRScoresConsistent(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 3 + int(seed%5)
		pf := randPF(seed, n)
		dend := cluster.Agglomerative(n, pf, cluster.AverageLink)
		ranked := HierarchyBestR(dend, pf, 4)
		if len(ranked) == 0 {
			t.Fatal("no frontiers")
		}
		for i, rc := range ranked {
			// Reported score must equal the grouping's CC score.
			if got := groupingScore(pf, n, rc.Clusters); math.Abs(got-rc.Score) > 1e-9 {
				t.Errorf("seed %d rank %d: reported %v, actual %v", seed, i, rc.Score, got)
			}
			// Clusters must partition [0, n).
			seen := make([]bool, n)
			for _, c := range rc.Clusters {
				for _, x := range c {
					if seen[x] {
						t.Fatalf("item %d repeated", x)
					}
					seen[x] = true
				}
			}
			for x, ok := range seen {
				if !ok {
					t.Fatalf("item %d missing", x)
				}
			}
			if i > 0 && ranked[i-1].Score < rc.Score {
				t.Error("frontiers not score-sorted")
			}
		}
	}
}

// The paper's §5.3 subsumption claim: every frontier of the hierarchy is a
// segmentation of the hierarchy's leaf order, so the best segmentation
// over that order scores at least as high as the best frontier.
func TestHierarchySubsumedBySegmentation(t *testing.T) {
	for seed := int64(20); seed <= 40; seed++ {
		n := 3 + int(seed%6)
		pf := randPF(seed, n)
		dend := cluster.Agglomerative(n, pf, cluster.AverageLink)
		frontier := HierarchyBestR(dend, pf, 1)[0]

		order := dend.LeafOrder()
		pos := make([]int, n)
		for p, item := range order {
			pos[item] = p
		}
		posPF := func(a, b int) float64 { return pf(order[a], order[b]) }
		sc := score.NewSegmentScorer(n, n, posPF, nil)
		_, segBest := Best(sc)
		if segBest < frontier.Score-1e-9 {
			t.Errorf("seed %d: segmentation best %v below hierarchy best %v",
				seed, segBest, frontier.Score)
		}
		// Sanity: every frontier cluster is contiguous in the leaf order.
		for _, c := range frontier.Clusters {
			lo, hi := n, -1
			for _, x := range c {
				if pos[x] < lo {
					lo = pos[x]
				}
				if pos[x] > hi {
					hi = pos[x]
				}
			}
			if hi-lo+1 != len(c) {
				t.Fatalf("seed %d: frontier cluster %v not contiguous in leaf order %v",
					seed, c, order)
			}
		}
	}
}

func TestHierarchyBestREdgeCases(t *testing.T) {
	pf := func(i, j int) float64 { return 1 }
	single := cluster.Agglomerative(1, pf, cluster.AverageLink)
	got := HierarchyBestR(single, pf, 3)
	if len(got) != 1 || len(got[0].Clusters) != 1 {
		t.Errorf("single leaf: %+v", got)
	}
	if HierarchyBestR(cluster.Agglomerative(0, pf, cluster.AverageLink), pf, 3) != nil {
		t.Error("empty dendrogram should give nil")
	}
	if HierarchyBestR(single, pf, 0) != nil {
		t.Error("r=0 should give nil")
	}
}

func TestHierarchyBestFindsPlantedClusters(t *testing.T) {
	// Two clear clusters: best frontier should be exactly them.
	n := 6
	group := func(i int) int { return i / 3 }
	pf := func(i, j int) float64 {
		if group(i) == group(j) {
			return 1
		}
		return -1
	}
	dend := cluster.Agglomerative(n, pf, cluster.AverageLink)
	best := HierarchyBestR(dend, pf, 1)[0]
	if len(best.Clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %v", best.Clusters)
	}
	for _, c := range best.Clusters {
		if len(c) != 3 || group(c[0]) != group(c[1]) || group(c[1]) != group(c[2]) {
			t.Errorf("cluster %v does not match planted structure", c)
		}
	}
}
