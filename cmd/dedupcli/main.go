// Command dedupcli answers TopK count queries over a TSV file from the
// shell, using a generic field-similarity domain: a sufficient predicate
// (exact token-normalised match of the primary field), a necessary
// predicate (3-gram overlap on the primary field), and a similarity-based
// scorer.
//
// The input format is the one written by Dataset.SaveTSV:
//
//	#weight<TAB>truth<TAB>field1<TAB>field2...
//
// (truth may be empty; weight 1 gives plain counts.)
//
// Usage:
//
//	dedupcli -in data.tsv -field name -k 10 -r 3    (.csv inputs also accepted)
//	dedupcli -in data.tsv -field name -rank -k 10
//	dedupcli -in data.tsv -field name -threshold 50
//	dedupcli -in data.tsv -field name -k 10 -explain
//	dedupcli -in data.tsv -field name -k 10 -trace-out trace.json
//
// With -server, dedupcli acts as a client for a running topkd daemon
// instead of computing locally: it ingests the loaded records over POST
// /ingest, forces a snapshot, and runs the query over GET /topk or GET
// /rank (the daemon's domain configuration applies; -overlap is ignored):
//
//	dedupcli -in data.tsv -field name -server http://localhost:8080 -k 10
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	topk "topkdedup"
	"topkdedup/internal/domains"
)

func main() {
	in := flag.String("in", "", "input TSV file (required)")
	field := flag.String("field", "", "primary entity-name field (required)")
	k := flag.Int("k", 10, "K: number of groups to return")
	r := flag.Int("r", 1, "R: number of alternative answers")
	rank := flag.Bool("rank", false, "run the TopK rank query instead of the count query")
	threshold := flag.Float64("threshold", 0, "run a thresholded rank query with this weight threshold")
	overlap := flag.Float64("overlap", 0.5, "necessary-predicate 3-gram overlap threshold")
	phases := flag.Bool("phases", false, "print the per-phase metrics breakdown (JSON, see OBSERVABILITY.md) to stderr after the query")
	explain := flag.Bool("explain", false, "print the per-query EXPLAIN report (predicate evals/hits, pruning rounds, bound evolution) to stderr after a count query")
	traceOut := flag.String("trace-out", "", "write the query's span tree as Chrome trace_event JSON to this file (load in chrome://tracing or Perfetto)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	serverURL := flag.String("server", "", "base URL of a running topkd daemon; ingest the records there and query over HTTP instead of computing locally")
	mode := flag.String("mode", "", "serving mode for the count query against -server: exact, approx, or hybrid (empty = exact; see SERVING.md)")
	flag.Parse()
	if *in == "" || *field == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *serverURL != "" {
		if err := runClient(*serverURL, *in, *field, *k, *r, *rank, *threshold, *mode); err != nil {
			fmt.Fprintln(os.Stderr, "dedupcli:", err)
			os.Exit(1)
		}
		return
	}
	if *mode != "" {
		fmt.Fprintln(os.Stderr, "dedupcli: -mode only applies with -server (the local engine is always exact)")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if err := run(*in, *field, *k, *r, *rank, *threshold, *overlap, *phases, *explain, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "dedupcli:", err)
		os.Exit(1)
	}
}

func run(path, field string, k, r int, rank bool, threshold, overlap float64, phases, explain bool, traceOut string) error {
	var (
		d   *topk.Dataset
		err error
	)
	if strings.HasSuffix(path, ".csv") {
		d, err = topk.LoadDatasetCSV("input", path)
	} else {
		d, err = topk.LoadDataset("input", path)
	}
	if err != nil {
		return err
	}
	found := false
	for _, f := range d.Schema {
		if f == field {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("field %q not in schema %v", field, d.Schema)
	}
	levels, scorer := genericDomain(field, overlap)
	cfg := topk.Config{}
	var col *topk.MetricsCollector
	if phases {
		col = topk.NewMetricsCollector()
		cfg.Metrics = col
		topk.SetPoolMetrics(col)
		defer topk.SetPoolMetrics(nil)
		defer func() { _ = col.WriteJSON(os.Stderr) }()
	}
	var tracer *topk.Tracer
	if explain || traceOut != "" {
		tracer = topk.NewTracer(1)
		cfg.Tracer = tracer
		cfg.Explain = explain
		defer func() {
			if traceOut == "" {
				return
			}
			if err := exportChromeTrace(tracer, traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "dedupcli: trace-out:", err)
			} else {
				fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or Perfetto)\n", traceOut)
			}
		}()
	}
	eng := topk.New(d, levels, scorer, cfg)

	switch {
	case threshold > 0:
		rr, err := eng.ThresholdedRank(threshold)
		if err != nil {
			return err
		}
		fmt.Printf("groups with weight > %g (settled=%v):\n", threshold, rr.Settled)
		for i, e := range rr.Entries {
			if e.Group.Weight <= threshold {
				break
			}
			fmt.Printf("%3d. %-40s weight=%.2f upper=%.2f resolved=%v\n",
				i+1, d.Recs[e.Group.Rep].Field(field), e.Group.Weight, e.Upper, e.Resolved)
		}
	case rank:
		rr, err := eng.TopKRank(k)
		if err != nil {
			return err
		}
		fmt.Printf("top-%d rank query (settled=%v):\n", k, rr.Settled)
		for i, e := range rr.Entries {
			if i == k {
				break
			}
			fmt.Printf("%3d. %-40s weight=%.2f upper=%.2f resolved=%v\n",
				i+1, d.Recs[e.Group.Rep].Field(field), e.Group.Weight, e.Upper, e.Resolved)
		}
	default:
		res, err := eng.TopK(k, r)
		if err != nil {
			return err
		}
		for ai, ans := range res.Answers {
			fmt.Printf("answer %d (score %.3f):\n", ai+1, ans.Score)
			for gi, g := range ans.Groups {
				fmt.Printf("%3d. %-40s weight=%.2f mentions=%d\n",
					gi+1, d.Recs[g.Rep].Field(field), g.Weight, len(g.Records))
			}
		}
		if len(res.Pruning) > 0 {
			last := res.Pruning[len(res.Pruning)-1]
			fmt.Printf("(pruned %d records to %d candidate groups, M=%.2f)\n",
				d.Len(), last.Survivors, last.LowerBound)
		}
		if explain {
			res.Explain.WriteText(os.Stderr)
		}
	}
	return nil
}

// exportChromeTrace writes the tracer's most recent trace in the Chrome
// trace_event shape.
func exportChromeTrace(tracer *topk.Tracer, path string) error {
	traces := tracer.Traces()
	if len(traces) == 0 {
		return fmt.Errorf("no trace recorded")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topk.WriteChromeTrace(f, tracer.Spans(traces[0].ID)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genericDomain builds schema-agnostic predicates and a scorer around one
// primary field (shared with topkd via domains.Generic).
func genericDomain(field string, overlap float64) ([]topk.Level, topk.PairScorer) {
	levels, scorer := domains.Generic(field, overlap)
	return levels, topk.PairScorerFunc(scorer)
}
