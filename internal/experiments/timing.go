package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/eval"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// TimingRow is one point of the Figure-6 running-time comparison. The
// JSON form is what topkbench -json writes.
type TimingRow struct {
	Method    string        `json:"method"`
	K         int           `json:"k"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	PairEvals int64         `json:"pair_evals"` // evaluations of the expensive criterion P
	// Workers is the worker-pool bound the row was measured with (1 =
	// serial; 0 on baseline methods that have no parallel path).
	Workers int `json:"workers,omitempty"`
	// Survivors is the group count entering the final phase (pruned
	// method only).
	Survivors int `json:"survivors,omitempty"`
}

// Fig6Methods in paper order.
var Fig6Methods = []string{"None", "Canopy", "Canopy+Collapse", "Canopy+Collapse+Prune"}

// Fig6 reproduces the timing comparison of Figure 6 on the given
// (sub)dataset: the full Cartesian product ("None"), the canopy join
// ("Canopy"), canopy after collapsing sure duplicates
// ("Canopy+Collapse"), and the full PrunedDedup pipeline
// ("Canopy+Collapse+Prune"). K only affects the pruned method; the flat
// baselines are measured once and replicated across the K sweep, exactly
// as their flat lines in the paper's plot.
func Fig6(dd *DomainData, ks []int) ([]TimingRow, error) {
	if dd.Model == nil {
		return nil, fmt.Errorf("fig6 requires a trained scorer")
	}
	var rows []TimingRow

	start := time.Now()
	evals := runNone(dd, ks[0])
	noneTime := time.Since(start)
	for _, k := range ks {
		rows = append(rows, TimingRow{Method: "None", K: k, Elapsed: noneTime, PairEvals: evals})
	}

	start = time.Now()
	evals = runCanopy(dd, ks[0])
	canopyTime := time.Since(start)
	for _, k := range ks {
		rows = append(rows, TimingRow{Method: "Canopy", K: k, Elapsed: canopyTime, PairEvals: evals})
	}

	start = time.Now()
	evals = runCanopyCollapse(dd)
	ccTime := time.Since(start)
	for _, k := range ks {
		rows = append(rows, TimingRow{Method: "Canopy+Collapse", K: k, Elapsed: ccTime, PairEvals: evals})
	}

	for _, k := range ks {
		start = time.Now()
		evals, survivors, err := runPruned(dd, k, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TimingRow{
			Method: "Canopy+Collapse+Prune", K: k,
			Elapsed: time.Since(start), PairEvals: evals,
			Workers: 1, Survivors: survivors,
		})
	}
	return rows, nil
}

// Fig6WorkerSweep times the full pruned pipeline at each worker-pool
// bound, per K. The survivor sets and eval counters are identical at
// every worker count (the pipeline's determinism guarantee); only the
// wall-clock differs, which is exactly what the sweep records.
func Fig6WorkerSweep(dd *DomainData, ks, workers []int) ([]TimingRow, error) {
	if dd.Model == nil {
		return nil, fmt.Errorf("fig6 requires a trained scorer")
	}
	var rows []TimingRow
	for _, k := range ks {
		for _, nw := range workers {
			start := time.Now()
			evals, survivors, err := runPruned(dd, k, nw)
			if err != nil {
				return nil, err
			}
			rows = append(rows, TimingRow{
				Method: "Canopy+Collapse+Prune", K: k,
				Elapsed: time.Since(start), PairEvals: evals,
				Workers: nw, Survivors: survivors,
			})
		}
	}
	return rows, nil
}

// RunFig6Method executes one Figure-6 strategy once and returns the
// number of P evaluations it performed. Exposed for the benchmark
// harness, which times each method in isolation.
func RunFig6Method(dd *DomainData, method string, k int) (int64, error) {
	if dd.Model == nil {
		return 0, fmt.Errorf("fig6 requires a trained scorer")
	}
	switch method {
	case "None":
		return runNone(dd, k), nil
	case "Canopy":
		return runCanopy(dd, k), nil
	case "Canopy+Collapse":
		return runCanopyCollapse(dd), nil
	case "Canopy+Collapse+Prune":
		evals, _, err := runPruned(dd, k, 1)
		return evals, err
	}
	return 0, fmt.Errorf("unknown fig6 method %q", method)
}

// topKByWeight finalises any of the baselines: group weights from a
// disjoint-set over records, then take the K heaviest.
func topKByWeight(d *records.Dataset, uf *dsu.DSU, k int) []float64 {
	weights := map[int]float64{}
	for _, r := range d.Recs {
		weights[uf.Find(r.ID)] += r.Weight
	}
	top := make([]float64, 0, len(weights))
	for _, w := range weights {
		top = append(top, w)
	}
	// partial selection is unnecessary here; n is small after grouping
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[i] {
				top[i], top[j] = top[j], top[i]
			}
		}
		if i == k-1 {
			break
		}
	}
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// runNone deduplicates with no optimisation at all: the full Cartesian
// product of records is scored with P and positive pairs are clustered by
// transitive closure (paper: "a straight Cartesian product of the records
// enumerates pairs on which we apply the final predicate").
func runNone(dd *DomainData, k int) int64 {
	d := dd.Data
	uf := dsu.New(d.Len())
	var evals int64
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j++ {
			if uf.Same(i, j) {
				continue
			}
			evals++
			if dd.Model.Score(d.Recs[i], d.Recs[j]) > 0 {
				uf.Union(i, j)
			}
		}
	}
	topKByWeight(d, uf, k)
	return evals
}

// canopyJoin is the last step of every Figure-6 method but None: over
// the groups' representatives, each pair that shares a blocking key of n,
// is not yet connected and passes n is scored with P, and positive pairs
// are unioned. Returns the closure over group indices and the number of
// P evaluations. The walk is core.BlockReps' fixed order, so the count —
// which depends on which pairs the union-find short-circuits — is the
// same on every run.
func canopyJoin(dd *DomainData, groups []core.Group, n predicate.P) (*dsu.DSU, int64) {
	d := dd.Data
	uf := dsu.New(len(groups))
	var evals int64
	core.BlockReps(d, groups, n, nil).ForEachPair(func(i, j int) bool {
		ri, rj := d.Recs[groups[i].Rep], d.Recs[groups[j].Rep]
		if uf.Same(i, j) || !n.Eval(ri, rj) {
			return true
		}
		evals++
		if dd.Model.Score(ri, rj) > 0 {
			uf.Union(i, j)
		}
		return true
	})
	return uf, evals
}

// runCanopy applies the necessary predicate as a canopy (blocking) step
// and scores only canopy pairs.
func runCanopy(dd *DomainData, k int) int64 {
	// A singleton group's index is its record's ID.
	uf, evals := canopyJoin(dd, core.SingletonGroups(dd.Data), dd.Domain.Levels[0].Necessary)
	topKByWeight(dd.Data, uf, k)
	return evals
}

// runCanopyCollapse additionally collapses sure duplicates with the
// sufficient predicates before the canopy join, so P runs on collapsed
// representatives.
func runCanopyCollapse(dd *DomainData) int64 {
	groups := core.SingletonGroups(dd.Data)
	for _, level := range dd.Domain.Levels {
		groups, _ = core.Collapse(dd.Data, groups, level.Sufficient)
	}
	_, evals := canopyJoin(dd, groups, dd.Domain.Levels[0].Necessary)
	return evals
}

// runPruned is the full Algorithm 2: PrunedDedup, then P only on the
// surviving groups' candidate pairs. workers bounds the pipeline's
// worker pool (1 = serial). Returns P evaluations and the survivor count.
func runPruned(dd *DomainData, k, workers int) (int64, int, error) {
	res, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Workers: workers, Sink: metricsSink})
	if err != nil {
		return 0, 0, err
	}
	_, ph := obs.Start(context.Background(), metricsSink, "bench.final")
	defer ph.End()
	_, evals := canopyJoin(dd, res.Groups, dd.Domain.Levels[len(dd.Domain.Levels)-1].Necessary)
	ph.Count("bench.final.evals", evals)
	return evals, len(res.Groups), nil
}

// RenderTimingTable prints the Figure-6 comparison.
func RenderTimingTable(w io.Writer, rows []TimingRow) {
	tbl := eval.NewTable("method", "K", "time", "P-evals")
	for _, r := range rows {
		tbl.AddRow(r.Method, r.K, r.Elapsed.Round(time.Millisecond).String(), r.PairEvals)
	}
	tbl.Render(w)
}

// RenderWorkerSweep prints the pruned pipeline's worker sweep.
func RenderWorkerSweep(w io.Writer, rows []TimingRow) {
	tbl := eval.NewTable("K", "workers", "time", "P-evals", "survivors")
	for _, r := range rows {
		tbl.AddRow(r.K, r.Workers, r.Elapsed.Round(time.Millisecond).String(), r.PairEvals, r.Survivors)
	}
	tbl.Render(w)
}
