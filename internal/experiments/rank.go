package experiments

import (
	"context"
	"io"

	"topkdedup/internal/core"
	"topkdedup/internal/eval"
	"topkdedup/internal/rankquery"
)

// RankRow is one row of the E9 experiment: the §7 rank-query extensions'
// pruning power compared to the plain TopK count query.
type RankRow struct {
	Query       string
	K           int
	Threshold   float64
	Survivors   int
	ExtraPruned int
	Resolved    int
	Settled     bool
}

// RankQueries runs the TopK count query, the TopK rank query, and a
// thresholded rank query on the same dataset for each K, reporting how
// many groups each keeps alive. The count and rank queries share one
// pruning per K.
func RankQueries(dd *DomainData, ks []int) ([]RankRow, error) {
	var rows []RankRow
	for _, k := range ks {
		pd, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Sink: metricsSink})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RankRow{Query: "topk-count", K: k, Survivors: len(pd.Groups)})

		rr := rankquery.FromPruned(dd.Data, dd.Domain.Levels, pd, k)
		rows = append(rows, RankRow{
			Query: "topk-rank", K: k,
			Survivors: len(rr.Entries), ExtraPruned: rr.ExtraPruned,
			Resolved: countResolved(rr), Settled: rr.Settled,
		})

		// Threshold at the K-th surviving group's weight: the thresholded
		// query that asks the equivalent question.
		if len(pd.Groups) >= k && pd.Groups[k-1].Weight > 0 {
			t := pd.Groups[k-1].Weight
			tr, err := rankquery.ThresholdedRank(context.Background(), dd.Data, dd.Domain.Levels, core.Options{Threshold: t, Sink: metricsSink})
			if err != nil {
				return nil, err
			}
			rows = append(rows, RankRow{
				Query: "thresholded-rank", K: k, Threshold: t,
				Survivors: len(tr.Entries), ExtraPruned: tr.ExtraPruned,
				Resolved: countResolved(tr), Settled: tr.Settled,
			})
		}
	}
	return rows, nil
}

func countResolved(rr *rankquery.RankResult) int {
	n := 0
	for _, e := range rr.Entries {
		if e.Resolved {
			n++
		}
	}
	return n
}

// RenderRankTable prints the E9 comparison.
func RenderRankTable(w io.Writer, rows []RankRow) {
	tbl := eval.NewTable("query", "K", "threshold", "survivors", "extraPruned", "resolved", "settled")
	for _, r := range rows {
		tbl.AddRow(r.Query, r.K, r.Threshold, r.Survivors, r.ExtraPruned, r.Resolved, r.Settled)
	}
	tbl.Render(w)
}
