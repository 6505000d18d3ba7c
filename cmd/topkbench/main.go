// Command topkbench regenerates the tables and figures of the paper's
// evaluation section (§6) on the synthetic dataset analogues.
//
// Usage:
//
//	topkbench -exp all                # every experiment at default scale
//	topkbench -exp fig2 -scale full   # citation pruning table, paper-size data
//	topkbench -exp fig7 -exp fig6     # selected experiments
//
// Experiments: table1, fig2, fig3, fig4, fig6, fig7, passes, embed, rank,
// stream, shard, all. Scales: small, default, full (record counts in
// DESIGN.md §5). Serving-path numbers come from the benchmark module
// (benchmark/README.md), not from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"topkdedup/internal/experiments"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
)

// benchReport is the machine-readable form of one topkbench run, written
// by -json.
type benchReport struct {
	Timestamp   string            `json:"timestamp"`
	Scale       string            `json:"scale"`
	NumCPU      int               `json:"num_cpu"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Experiments []benchExperiment `json:"experiments"`
}

// benchExperiment records one experiment's wall clock plus, where the
// experiment produces them, its per-point timing rows (predicate evals,
// survivor counts, worker-pool bound) and the per-phase metrics
// breakdown collected while it ran (counters, gauges, and duration /
// size histograms under the OBSERVABILITY.md names — collapse, lower
// bound, prune passes, exact clustering, final scoring, pool).
type benchExperiment struct {
	Name      string                  `json:"name"`
	ElapsedMS float64                 `json:"elapsed_ms"`
	Rows      []experiments.TimingRow `json:"timing_rows,omitempty"`
	// ShardRows carries the single-machine vs sharded sweep's per-cell
	// timing and bound-exchange statistics (shard experiment only).
	ShardRows []experiments.ShardRow `json:"shard_rows,omitempty"`
	Phases    *obs.Snapshot          `json:"phases,omitempty"`
}

type expFlag []string

func (e *expFlag) String() string { return strings.Join(*e, ",") }
func (e *expFlag) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			*e = append(*e, part)
		}
	}
	return nil
}

func main() {
	var exps expFlag
	flag.Var(&exps, "exp", "experiment to run (repeatable / comma separated): table1, fig2, fig3, fig4, fig6, fig7, passes, embed, rank, stream, shard, all")
	scaleName := flag.String("scale", "default", "dataset scale: small, default, full")
	jsonPath := flag.String("json", "", "write a machine-readable benchReport of the run to this path")
	workersFlag := flag.String("workers", "", "comma-separated worker-pool bounds for the fig6 sweep (default \"1,<NumCPU>\"; 0 = NumCPU)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	workerSweep := []int{1, runtime.NumCPU()}
	if *workersFlag != "" {
		workerSweep = workerSweep[:0]
		for _, part := range strings.Split(*workersFlag, ",") {
			var w int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &w); err != nil {
				fmt.Fprintf(os.Stderr, "bad -workers value %q\n", part)
				os.Exit(2)
			}
			if w <= 0 {
				w = runtime.NumCPU()
			}
			workerSweep = append(workerSweep, w)
		}
	}

	if len(exps) == 0 {
		exps = expFlag{"all"}
	}
	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale
	case "default":
		scale = experiments.DefaultScale
	case "full":
		scale = experiments.FullScale
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	all := want["all"]
	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      *scaleName,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	run := func(name string, fn func() ([]experiments.TimingRow, error)) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("== %s (scale %s) ==\n", name, *scaleName)
		// Fresh collector per experiment so the JSON report carries an
		// isolated per-phase breakdown for each one.
		col := obs.NewCollector()
		experiments.SetMetrics(col)
		parallel.SetSink(col)
		start := time.Now()
		rows, err := fn()
		elapsed := time.Since(start)
		experiments.SetMetrics(nil)
		parallel.SetSink(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		exp := benchExperiment{
			Name: name, ElapsedMS: float64(elapsed.Microseconds()) / 1000, Rows: rows,
		}
		if snap := col.Snapshot(); !snap.Empty() {
			exp.Phases = snap
		}
		report.Experiments = append(report.Experiments, exp)
		fmt.Printf("-- %s done in %s --\n\n", name, elapsed.Round(time.Millisecond))
	}
	noRows := func(fn func() error) func() ([]experiments.TimingRow, error) {
		return func() ([]experiments.TimingRow, error) { return nil, fn() }
	}

	run("table1", noRows(func() error { return runTable1(scale) }))
	run("fig2", noRows(func() error { return runPruning("fig2", scale) }))
	run("fig3", noRows(func() error { return runPruning("fig3", scale) }))
	run("fig4", noRows(func() error { return runPruning("fig4", scale) }))
	run("fig6", func() ([]experiments.TimingRow, error) { return runFig6(scale, workerSweep) })
	run("fig7", noRows(func() error { return runFig7(scale) }))
	run("passes", noRows(func() error { return runPasses(scale) }))
	run("embed", noRows(func() error { return runEmbed(scale) }))
	run("rank", noRows(func() error { return runRank(scale) }))
	run("stream", noRows(func() error { return runStream(scale) }))

	if all || want["shard"] {
		fmt.Printf("== shard (scale %s) ==\n", *scaleName)
		col := obs.NewCollector()
		experiments.SetMetrics(col)
		parallel.SetSink(col)
		start := time.Now()
		shardRows, err := runShard(scale, workerSweep)
		elapsed := time.Since(start)
		experiments.SetMetrics(nil)
		parallel.SetSink(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shard failed: %v\n", err)
			os.Exit(1)
		}
		exp := benchExperiment{
			Name: "shard", ElapsedMS: float64(elapsed.Microseconds()) / 1000, ShardRows: shardRows,
		}
		if snap := col.Snapshot(); !snap.Empty() {
			exp.Phases = snap
		}
		report.Experiments = append(report.Experiments, exp)
		fmt.Printf("-- shard done in %s --\n\n", elapsed.Round(time.Millisecond))
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// Dataset construction is memoized across experiments: a -exp all run
// shares one Citation dataset between fig2 and passes, one Fig7All
// result between table1 and fig7, and so on. Construction (datagen +
// classifier training) is hoisted out of the measured experiment bodies
// this way, so timings — the fig6 -workers sweep in particular —
// measure the pipeline, not dataset generation. Keys encode every
// parameter that affects construction.
var (
	setupCache   = map[string]*experiments.DomainData{}
	fig7RowCache map[int][]experiments.QualityRow
)

func cachedSetup(key string, build func() (*experiments.DomainData, error)) (*experiments.DomainData, error) {
	if dd, ok := setupCache[key]; ok {
		return dd, nil
	}
	dd, err := build()
	if err != nil {
		return nil, err
	}
	setupCache[key] = dd
	return dd, nil
}

func cachedFig7All(target int) ([]experiments.QualityRow, error) {
	if rows, ok := fig7RowCache[target]; ok {
		return rows, nil
	}
	rows, err := experiments.Fig7All(target)
	if err != nil {
		return nil, err
	}
	if fig7RowCache == nil {
		fig7RowCache = map[int][]experiments.QualityRow{}
	}
	fig7RowCache[target] = rows
	return rows, nil
}

func runPruning(which string, scale experiments.Scale) error {
	var (
		dd    *experiments.DomainData
		err   error
		title string
	)
	switch which {
	case "fig2":
		dd, err = cachedSetup(fmt.Sprintf("citations/%d", scale.Citations), func() (*experiments.DomainData, error) {
			return experiments.CitationSetup(scale.Citations, false)
		})
		title = fmt.Sprintf("Figure 2 analogue — Citation dataset: %d records", 0)
	case "fig3":
		dd, err = cachedSetup(fmt.Sprintf("students/%d", scale.Students), func() (*experiments.DomainData, error) {
			return experiments.StudentSetup(scale.Students, false)
		})
		title = "Figure 3 analogue — Student dataset"
	case "fig4":
		dd, err = cachedSetup(fmt.Sprintf("addresses/%d", scale.Addresses), func() (*experiments.DomainData, error) {
			return experiments.AddressSetup(scale.Addresses, false)
		})
		title = "Figure 4 analogue — Address dataset"
	}
	if err != nil {
		return err
	}
	if which == "fig2" {
		title = fmt.Sprintf("Figure 2 analogue — Citation dataset: %d records", dd.Data.Len())
	} else {
		title = fmt.Sprintf("%s: %d records", title, dd.Data.Len())
	}
	ks := experiments.KsForScale(dd.Data.Len())
	rows, err := experiments.PruningSweep(dd, ks, 2)
	if err != nil {
		return err
	}
	experiments.RenderPruneTable(os.Stdout, title, rows)
	return nil
}

func runFig6(scale experiments.Scale, workerSweep []int) ([]experiments.TimingRow, error) {
	// The trained dataset is constructed once, before any timing starts:
	// both the method comparison and the worker sweep below reuse it, so
	// the sweep's wall clocks contain no datagen or training time.
	dd, err := cachedSetup(fmt.Sprintf("citations-trained/%d", scale.Fig6), func() (*experiments.DomainData, error) {
		return experiments.CitationSetup(scale.Fig6, true)
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("Figure 6 analogue — timing on %d citation records (scorer held-out acc %.1f%%)\n",
		dd.Data.Len(), 100*dd.PairAcc)
	ks := experiments.KsForScale(dd.Data.Len())
	rows, err := experiments.Fig6(dd, ks)
	if err != nil {
		return nil, err
	}
	experiments.RenderTimingTable(os.Stdout, rows)
	// Worker sweep over the full pruned pipeline: same answers and eval
	// counts at every bound, wall clock is the variable under test.
	fmt.Printf("\nworker sweep (pruned pipeline), workers = %v\n", workerSweep)
	sweep, err := experiments.Fig6WorkerSweep(dd, ks, workerSweep)
	if err != nil {
		return nil, err
	}
	experiments.RenderWorkerSweep(os.Stdout, sweep)
	return append(rows, sweep...), nil
}

func runFig7(scale experiments.Scale) error {
	rows, err := cachedFig7All(scale.Fig7)
	if err != nil {
		return err
	}
	fmt.Println("Table 1 analogue — datasets for comparing with exact algorithms")
	experiments.RenderTable1(os.Stdout, rows)
	fmt.Println()
	fmt.Println("Figure 7 analogue — accuracy of highest scoring grouping vs optimal")
	experiments.RenderFig7(os.Stdout, rows)
	return nil
}

func runTable1(scale experiments.Scale) error {
	rows, err := cachedFig7All(scale.Fig7)
	if err != nil {
		return err
	}
	fmt.Println("Table 1 analogue — datasets for comparing with exact algorithms")
	experiments.RenderTable1(os.Stdout, rows)
	return nil
}

func runPasses(scale experiments.Scale) error {
	dd, err := cachedSetup(fmt.Sprintf("citations/%d", scale.Citations), func() (*experiments.DomainData, error) {
		return experiments.CitationSetup(scale.Citations, false)
	})
	if err != nil {
		return err
	}
	fmt.Printf("E7 — upper-bound refinement passes (§4.3) on %d citation records\n", dd.Data.Len())
	ks := experiments.KsForScale(dd.Data.Len())
	if len(ks) > 4 {
		ks = ks[:4]
	}
	rows, err := experiments.PrunePassAblation(dd, ks)
	if err != nil {
		return err
	}
	experiments.RenderPassTable(os.Stdout, rows)
	return nil
}

func runEmbed(scale experiments.Scale) error {
	fmt.Println("E8 — linear-embedding ablation (§5.3.1)")
	for _, name := range []string{"address", "restaurant"} {
		rows, err := experiments.EmbedAblation(name, scale.Fig7)
		if err != nil {
			return err
		}
		experiments.RenderEmbedAblation(os.Stdout, rows)
		fmt.Println()
	}
	return nil
}

func runRank(scale experiments.Scale) error {
	for _, variant := range []struct {
		label string
		noise float64
	}{
		{"default noise", 0},
		{"low noise (0.15)", 0.15},
	} {
		noise := variant.noise
		dd, err := cachedSetup(fmt.Sprintf("students-noise/%d/%g", scale.Students, noise), func() (*experiments.DomainData, error) {
			return experiments.StudentSetupNoise(scale.Students, noise, false)
		})
		if err != nil {
			return err
		}
		fmt.Printf("E9 — §7 rank-query extensions on %d student records, %s\n",
			dd.Data.Len(), variant.label)
		ks := experiments.KsForScale(dd.Data.Len())
		if len(ks) > 4 {
			ks = ks[:4]
		}
		rows, err := experiments.RankQueries(dd, ks)
		if err != nil {
			return err
		}
		experiments.RenderRankTable(os.Stdout, rows)
		fmt.Println()
	}
	return nil
}

// runShard times PrunedDedup single-machine and through the sharded
// coordinator over the K × worker bound × shard count grid, on citations
// (one canopy component: every shard but one runs empty) and students
// (hundreds of components: the data sharding is shaped for), verifying
// every cell byte-identical to the single-machine pipeline. The "x
// single" column is the answer to "does sharding pay": shard count 1
// reads as the pure coordination overhead.
func runShard(scale experiments.Scale, workerSweep []int) ([]experiments.ShardRow, error) {
	cit, err := cachedSetup(fmt.Sprintf("citations/%d", scale.Citations), func() (*experiments.DomainData, error) {
		return experiments.CitationSetup(scale.Citations, false)
	})
	if err != nil {
		return nil, err
	}
	stu, err := cachedSetup(fmt.Sprintf("students/%d", scale.Students), func() (*experiments.DomainData, error) {
		return experiments.StudentSetup(scale.Students, false)
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("E12 — single-machine vs sharded PrunedDedup on %d citation and %d student records (median of 3 runs per cell)\n", cit.Data.Len(), stu.Data.Len())
	var rows []experiments.ShardRow
	for _, dd := range []*experiments.DomainData{cit, stu} {
		ks := experiments.KsForScale(dd.Data.Len())
		if len(ks) > 3 {
			ks = ks[:3]
		}
		r, err := experiments.ShardSweep(dd, ks, []int{1, 2, 4, 8}, workerSweep)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	experiments.RenderShardTable(os.Stdout, rows)
	return rows, nil
}

func runStream(scale experiments.Scale) error {
	fmt.Println("E10 — incremental (streaming) accumulator vs from-scratch batch query")
	rows, err := experiments.StreamVsBatch(scale.Citations, 6, 10)
	if err != nil {
		return err
	}
	experiments.RenderStreamTable(os.Stdout, rows)
	return nil
}
