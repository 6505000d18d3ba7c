// Benchmarks regenerating the paper's tables and figures (one family per
// experiment; see DESIGN.md §5 and cmd/topkbench for the full tables).
// Dataset sizes follow experiments.SmallScale so `go test -bench=.`
// completes quickly; cmd/topkbench runs the larger sweeps.
package topk

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/experiments"
)

// Lazy shared fixtures so unrelated benchmarks do not pay repeated
// dataset generation and classifier training.
var (
	benchOnce sync.Once
	benchCit  *experiments.DomainData // citations without scorer (pruning sweeps)
	benchStu  *experiments.DomainData
	benchAddr *experiments.DomainData
	benchFig6 *experiments.DomainData // citation subset with trained scorer
	benchErr  error
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.SmallScale
		if benchCit, benchErr = experiments.CitationSetup(s.Citations*2, false); benchErr != nil {
			return
		}
		if benchStu, benchErr = experiments.StudentSetup(s.Students*2, false); benchErr != nil {
			return
		}
		if benchAddr, benchErr = experiments.AddressSetup(s.Addresses*2, false); benchErr != nil {
			return
		}
		benchFig6, benchErr = experiments.CitationSetup(s.Fig6, true)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

// benchPruning is the shared body of the Figure 2/3/4 benchmarks: one
// sub-benchmark per K, reporting survivor percentage.
func benchPruning(b *testing.B, dd *experiments.DomainData) {
	for _, k := range experiments.KsForScale(dd.Data.Len()) {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var last core.LevelStats
			for i := 0; i < b.N; i++ {
				res, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Stats[len(res.Stats)-1]
			}
			b.ReportMetric(last.SurvivorsPct, "survivor%")
			b.ReportMetric(last.LowerBound, "M")
		})
	}
}

// BenchmarkFig2Pruning regenerates the Figure-2 table (Citation dataset).
func BenchmarkFig2Pruning(b *testing.B) {
	benchSetup(b)
	benchPruning(b, benchCit)
}

// BenchmarkFig3Pruning regenerates the Figure-3 table (Student dataset).
func BenchmarkFig3Pruning(b *testing.B) {
	benchSetup(b)
	benchPruning(b, benchStu)
}

// BenchmarkFig4Pruning regenerates the Figure-4 table (Address dataset).
func BenchmarkFig4Pruning(b *testing.B) {
	benchSetup(b)
	benchPruning(b, benchAddr)
}

// BenchmarkFig6Methods regenerates the Figure-6 timing comparison: one
// sub-benchmark per deduplication strategy at K=10.
func BenchmarkFig6Methods(b *testing.B) {
	benchSetup(b)
	for _, method := range experiments.Fig6Methods {
		method := method
		b.Run(method, func(b *testing.B) {
			if method == "None" && testing.Short() {
				b.Skip("quadratic baseline")
			}
			var evals int64
			var err error
			for i := 0; i < b.N; i++ {
				evals, err = experiments.RunFig6Method(benchFig6, method, 10)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(evals), "P-evals")
		})
	}
}

// BenchmarkTable1Datasets regenerates the Table-1 dataset inventory and
// BenchmarkFig7Accuracy the Figure-7 quality comparison, one
// sub-benchmark per small labelled benchmark.
func BenchmarkFig7Accuracy(b *testing.B) {
	for _, name := range experiments.Fig7Datasets {
		name := name
		b.Run(name, func(b *testing.B) {
			var row *experiments.QualityRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.Fig7(name, experiments.SmallScale.Fig7)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.F1Embed, "F1-embed%")
			b.ReportMetric(row.F1TC, "F1-tc%")
		})
	}
}

// BenchmarkTable1Datasets reports the Table-1 columns (records / groups
// in the exact clustering) while timing dataset construction + exact
// clustering.
func BenchmarkTable1Datasets(b *testing.B) {
	for _, name := range experiments.Fig7Datasets {
		name := name
		b.Run(name, func(b *testing.B) {
			var row *experiments.QualityRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.Fig7(name, experiments.SmallScale.Fig7)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Records), "records")
			b.ReportMetric(float64(row.ExactGroups), "groups")
		})
	}
}

// BenchmarkPrunePasses is the E7 ablation: upper-bound refinement passes.
func BenchmarkPrunePasses(b *testing.B) {
	benchSetup(b)
	for passes := 1; passes <= 3; passes++ {
		passes := passes
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			var survivors int
			for i := 0; i < b.N; i++ {
				res, err := core.PrunedDedup(benchCit.Data, benchCit.Domain.Levels,
					core.Options{K: 10, PrunePasses: passes})
				if err != nil {
					b.Fatal(err)
				}
				survivors = len(res.Groups)
			}
			b.ReportMetric(float64(survivors), "survivors")
		})
	}
}

// BenchmarkEmbedAblation is the E8 ablation: segmentation quality per
// linear ordering.
func BenchmarkEmbedAblation(b *testing.B) {
	var rows []experiments.EmbedAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.EmbedAblation("address", experiments.SmallScale.Fig7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.F1, "F1-"+r.Order)
	}
}

// BenchmarkRankQueries is the E9 experiment: §7 query extensions.
func BenchmarkRankQueries(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RankQueries(benchCit, []int{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTopK times the full public-API query end to end on the
// trained citation subset.
func BenchmarkEngineTopK(b *testing.B) {
	benchSetup(b)
	eng := New(benchFig6.Data, benchFig6.Domain.Levels, benchFig6.Model, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopK(10, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTopKWorkers sweeps the worker-pool bound on the full
// query, to measure the parallel execution layer's speedup (results are
// identical at every bound; only wall clock may differ — and only
// improves when the host actually has more than one CPU).
func BenchmarkEngineTopKWorkers(b *testing.B) {
	benchSetup(b)
	counts := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() > 4 {
		counts = []int{1, 4, runtime.NumCPU()}
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := New(benchFig6.Data, benchFig6.Domain.Levels, benchFig6.Model, Config{Workers: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TopK(10, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineTopKTracing compares the full query with tracing off
// (the nil-tracer fast path: one context Value lookup per phase, zero
// allocations — TestTracerUntracedNoAllocs pins the exact count) and
// on (a Config.Tracer recording every phase span). Run with
// -benchmem: the "off" variant's allocs/op must equal the baseline
// BenchmarkEngineTopK's.
func BenchmarkEngineTopKTracing(b *testing.B) {
	benchSetup(b)
	variants := []struct {
		name string
		cfg  Config
	}{
		{"off", Config{}},
		{"on", Config{Tracer: NewTracer(1)}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			eng := New(benchFig6.Data, benchFig6.Domain.Levels, benchFig6.Model, v.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TopK(10, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollapse isolates the sufficient-predicate collapse step.
func BenchmarkCollapse(b *testing.B) {
	benchSetup(b)
	d := benchCit.Data
	level := benchCit.Domain.Levels[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := make([]core.Group, d.Len())
		for j, r := range d.Recs {
			groups[j] = core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
		}
		core.Collapse(d, groups, level.Sufficient)
	}
}

// BenchmarkLowerBound isolates the CPN-based lower-bound estimation.
func BenchmarkLowerBound(b *testing.B) {
	benchSetup(b)
	d := benchCit.Data
	level := benchCit.Domain.Levels[0]
	groups := make([]core.Group, d.Len())
	for j, r := range d.Recs {
		groups[j] = core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
	}
	collapsed, _ := core.Collapse(d, groups, level.Sufficient)
	sort.Slice(collapsed, func(i, j int) bool { return collapsed[i].Weight > collapsed[j].Weight })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EstimateLowerBound(d, collapsed, level.Necessary, 10)
	}
}

// BenchmarkPredicateEval is the per-pair cost of the citation N1
// predicate over every blocking-key candidate pair of a 4,000-record
// dataset, in its two forms: unbound (Eval derives both signatures from
// the records on every pair: field lookups and memo probes) and bound
// (signatures computed once by Bound, then only the match). ns/eval is
// the figure BENCH_2026-09-28_bound.txt records.
func BenchmarkPredicateEval(b *testing.B) {
	dd, err := experiments.CitationSetup(4000, false)
	if err != nil {
		b.Fatal(err)
	}
	recs, n1 := dd.Data.Recs, dd.Domain.Levels[0].Necessary
	var pairs [][2]int32
	n1.Block(recs, nil).ForEachPair(func(i, j int) bool {
		pairs = append(pairs, [2]int32{int32(i), int32(j)})
		return true
	})
	bound := n1.Bound(recs)
	for _, form := range []struct {
		name string
		eval func(i, j int) bool
	}{
		{"unbound", func(i, j int) bool { return n1.Eval(recs[i], recs[j]) }},
		{"bound", bound},
	} {
		b.Run(form.name, func(b *testing.B) {
			hits := 0
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for _, p := range pairs {
					if form.eval(int(p[0]), int(p[1])) {
						hits++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/eval")
			b.ReportMetric(float64(hits)/float64(b.N), "hits")
		})
	}
}

// BenchmarkStreamVsBatch is the E10 experiment: incremental accumulator
// vs from-scratch batch queries over an evolving feed.
func BenchmarkStreamVsBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamVsBatch(experiments.SmallScale.Citations, 4, 10); err != nil {
			b.Fatal(err)
		}
	}
}
