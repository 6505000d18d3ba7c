package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// exactCounts are the per-layer metrics that count work rather than time
// it: for one seed they must read exactly the same in both files.
var exactCounts = []string{
	"core.pair_evals", "core.survivors_k10", "core.m_k10", "engine.final.scored_pairs",
	"wal.fsyncs_per_batch", "wal.bytes_per_record",
}

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s line %d: record has no result", path, line)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default, exclusive method), so that the spread printed
// here is the one the acceptance run computes. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values, where there is none to see.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, median(xs)))
}

// values collects one metric of one workload from a file's runs of the
// given trace mode, with the seed of each.
func values(recs []record, workload, metric string, trace int) (vals []float64, seeds []int64) {
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds
}

// failedShare is a file's failed ops over attempted ops on one workload.
func failedShare(recs []record, workload string) (share float64, runs int) {
	var failed, attempted int
	for _, r := range recs {
		if r.Workload == workload {
			failed, attempted, runs = failed+r.Result.Failed, attempted+r.Result.Attempted, runs+1
		}
	}
	return ratio(float64(failed), float64(attempted)), runs
}

// runCompare prints, per workload and metric, the medians of the two
// files' runs and how much worse b is than a against the metric's bound.
// A row whose own run-to-run spread in either file exceeds the bound is
// "unresolved", not "ok"; a row over its bound, a failed op in b where a
// had none, or an exact count that differs for one seed is a breach, and
// any breach makes the exit code 1.
func runCompare(specPath, pathA, pathB string, w io.Writer) int {
	sp, err := loadSpec(specPath)
	if err == nil {
		var a, b []record
		if a, err = readRecords(pathA); err == nil {
			if b, err = readRecords(pathB); err == nil {
				return compare(sp, a, b, w)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
	return 2
}

func compare(sp *spec, a, b []record, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median (n)\tb median (n)\tworse by\tbound\tspread a / b\tverdict")
	breaches, unresolved := 0, 0
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			va, _ := values(a, wl.Name, d.Name, 0)
			vb, _ := values(b, wl.Name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.1f%%\t%.0f%%\t%.1f%% / %.1f%%\t%s\n",
				wl.Name, d.Name, d.Unit, ma, len(va), mb, len(vb), 100*worse, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
		fa, na := failedShare(a, wl.Name)
		fb, nb := failedShare(b, wl.Name)
		if na > 0 && nb > 0 {
			verdict := "ok"
			if fb > fa {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\tfailed_ops_share\tratio\t%.6g (%d)\t%.6g (%d)\t\t0%%\t\t%s\n", wl.Name, fa, na, fb, nb, verdict)
		}
		for _, name := range exactCounts {
			va, seedsA := values(a, wl.Name, name, 1)
			vb, seedsB := values(b, wl.Name, name, 1)
			bySeed := map[int64]float64{}
			for i, s := range seedsA {
				bySeed[s] = va[i]
			}
			for i, s := range seedsB {
				want, ok := bySeed[s]
				if !ok || (want == 0 && vb[i] == 0) {
					continue // no such seed in a, or a workload without this layer
				}
				verdict := "ok"
				if want != vb[i] {
					verdict = "BREACH"
					breaches++
				}
				fmt.Fprintf(tw, "%s\t%s (seed %d)\tcount\t%.6g\t%.6g\t\texact\t\t%s\n", wl.Name, name, s, want, vb[i], verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return 2
	}
	fmt.Fprintf(w, "%d breached, %d unresolved (spread over the bound: move the metric to the per-layer list, do not widen the bound)\n",
		breaches, unresolved)
	if breaches > 0 {
		return 1
	}
	return 0
}
