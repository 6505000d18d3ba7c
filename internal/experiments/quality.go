package experiments

import (
	"fmt"
	"io"

	"topkdedup/internal/cluster"
	"topkdedup/internal/embed"
	"topkdedup/internal/eval"
	"topkdedup/internal/score"
	"topkdedup/internal/segment"
)

// QualityRow is one Figure-7 bar pair plus the Table-1 dataset columns.
type QualityRow struct {
	Dataset     string
	Records     int
	TruthGroups int
	// ExactGroups is the number of groups in the exact correlation
	// clustering (the paper's "# Groups in LP" column of Table 1).
	ExactGroups int
	// ExactGuaranteed is false when some positive component exceeded the
	// solver limit (the analogue of the paper's non-integral LP cases).
	ExactGuaranteed bool
	// F1Embed is the pairwise F1 of embedding+segmentation against the
	// exact optimum; F1TC the same for the transitive-closure baseline.
	F1Embed, F1TC float64
	// TruthF1Embed / TruthF1Exact score both clusterings against ground
	// truth (extra diagnostic, not in the paper), with the B-cubed
	// counterparts alongside.
	TruthF1Embed, TruthF1Exact float64
	BCubedEmbed, BCubedExact   float64
	// ScorerAccuracy is the held-out pair accuracy of the learned P.
	ScorerAccuracy float64
}

// candidatePairs builds the canopy pair set and cached scores for a
// Figure-7 dataset: pairs passing the domain's necessary predicate,
// scored by the trained model.
func candidatePairs(dd *DomainData) (score.PairFunc, []cluster.Edge) {
	d := dd.Data
	n1 := dd.Domain.Levels[0].Necessary
	pairScore := make(map[[2]int]float64)
	var edges []cluster.Edge
	n1.Block(d.Recs, nil).ForEachPair(func(i, j int) bool {
		if !n1.Eval(d.Recs[i], d.Recs[j]) {
			return true
		}
		pairScore[[2]int{i, j}] = dd.Model.Score(d.Recs[i], d.Recs[j])
		edges = append(edges, cluster.Edge{A: i, B: j})
		return true
	})
	pf := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		if s, ok := pairScore[[2]int{i, j}]; ok {
			return s
		}
		// Pairs failing the necessary predicate are known non-duplicates;
		// a hard penalty keeps segmentations from spanning them (at 0 the
		// DP would merge unrelated neighbours for free).
		return score.NonCandidateScore
	}
	return pf, edges
}

// segmentationClusters runs embedding + best-segmentation over the
// candidate graph and returns the resulting partition.
func segmentationClusters(n int, pf score.PairFunc, order []int) [][]int {
	posPF := func(a, b int) float64 { return pf(order[a], order[b]) }
	sc := score.NewSegmentScorer(n, score.MaxSegmentWidth, posPF, nil)
	segs, _ := segment.Best(sc)
	return segment.Clusters(segs, order)
}

func embedEdges(edges []cluster.Edge) []embed.Edge {
	out := make([]embed.Edge, len(edges))
	for i, e := range edges {
		out[i] = embed.Edge{A: e.A, B: e.B}
	}
	return out
}

// Fig7 reproduces the Figure-7 quality comparison for one benchmark.
func Fig7(name string, target int) (*QualityRow, error) {
	dd, err := Fig7Setup(name, target)
	if err != nil {
		return nil, err
	}
	d := dd.Data
	n := d.Len()
	pf, edges := candidatePairs(dd)

	exact := cluster.ExactWorkersObs(n, pf, edges, 18, 0, metricsSink)
	order := embed.Greedy(n, pf, embedEdges(edges))
	embedded := segmentationClusters(n, pf, order)
	tc := cluster.TransitiveClosure(n, pf, edges)

	row := &QualityRow{
		Dataset:         name,
		Records:         n,
		TruthGroups:     len(d.TruthGroups()),
		ExactGroups:     len(exact.Clusters),
		ExactGuaranteed: exact.Exact,
		F1Embed:         100 * eval.AgreementF1(n, embedded, exact.Clusters).F1,
		F1TC:            100 * eval.AgreementF1(n, tc, exact.Clusters).F1,
		TruthF1Embed:    100 * eval.PairF1(d, embedded).F1,
		TruthF1Exact:    100 * eval.PairF1(d, exact.Clusters).F1,
		BCubedEmbed:     100 * eval.BCubed(d, embedded).F1,
		BCubedExact:     100 * eval.BCubed(d, exact.Clusters).F1,
		ScorerAccuracy:  100 * dd.PairAcc,
	}
	return row, nil
}

// Fig7All runs Fig7 over the paper's four benchmarks.
func Fig7All(target int) ([]QualityRow, error) {
	rows := make([]QualityRow, 0, len(Fig7Datasets))
	for _, name := range Fig7Datasets {
		row, err := Fig7(name, target)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// RenderTable1 prints the Table-1 dataset inventory columns.
func RenderTable1(w io.Writer, rows []QualityRow) {
	tbl := eval.NewTable("Name", "# Records", "# Groups in exact")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Records, r.ExactGroups)
	}
	tbl.Render(w)
}

// RenderFig7 prints the Figure-7 comparison bars as a table.
func RenderFig7(w io.Writer, rows []QualityRow) {
	tbl := eval.NewTable("Dataset", "F1 Embed+Seg", "F1 TransClosure", "exact?", "truthB3 embed", "truthB3 exact", "scorerAcc%")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.F1Embed, r.F1TC, r.ExactGuaranteed, r.BCubedEmbed, r.BCubedExact, r.ScorerAccuracy)
	}
	tbl.Render(w)
}

// EmbedAblationRow is one row of the E8 ablation: segmentation quality as
// a function of the linear ordering.
type EmbedAblationRow struct {
	Dataset string
	Order   string
	// F1 against the exact optimum, and the correlation-clustering
	// within-score of the resulting partition.
	F1          float64
	WithinScore float64
}

// EmbedAblation compares the greedy Eq.-3 embedding against a hierarchy
// leaf order, a random permutation, and the identity order on one
// Figure-7 benchmark.
func EmbedAblation(name string, target int) ([]EmbedAblationRow, error) {
	dd, err := Fig7Setup(name, target)
	if err != nil {
		return nil, err
	}
	n := dd.Data.Len()
	pf, edges := candidatePairs(dd)
	exact := cluster.ExactWorkersObs(n, pf, edges, 18, 0, metricsSink)

	orders := []struct {
		name  string
		order []int
	}{
		{"greedy-eq3", embed.Greedy(n, pf, embedEdges(edges))},
		{"spectral", embed.Spectral(n, pf, embedEdges(edges), 0)},
		{"hierarchy-leaves", cluster.Agglomerative(n, pf, cluster.AverageLink).LeafOrder()},
		{"identity", embed.Identity(n)},
		{"random", embed.Random(n, 5)},
	}
	var rows []EmbedAblationRow
	for _, o := range orders {
		clusters := segmentationClusters(n, pf, o.order)
		rows = append(rows, EmbedAblationRow{
			Dataset:     name,
			Order:       o.name,
			F1:          100 * eval.AgreementF1(n, clusters, exact.Clusters).F1,
			WithinScore: cluster.WithinScore(pf, edges, clusters),
		})
	}
	return rows, nil
}

// RenderEmbedAblation prints the E8 table.
func RenderEmbedAblation(w io.Writer, rows []EmbedAblationRow) {
	tbl := eval.NewTable("Dataset", "ordering", "F1 vs exact", "within-score")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Order, r.F1, r.WithinScore)
	}
	tbl.Render(w)
}
