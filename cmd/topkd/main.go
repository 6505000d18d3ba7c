// Command topkd serves TopK count queries over HTTP while records keep
// arriving. It wraps internal/server around the generic field-similarity
// domain (the same predicates and scorer dedupcli uses), so a running
// daemon answers the paper's TopK, R-best, and rank queries against a
// live, growing dataset.
//
// Endpoints (see SERVING.md for the full API reference):
//
//	POST /ingest    JSON record batches
//	POST /refresh   force a snapshot publication
//	GET  /topk      TopK count query (?k=&r=)
//	GET  /rank      rank query (?k= or ?t=)
//	GET  /healthz   liveness, snapshot freshness, build info, SLO status
//	GET  /metrics   JSON metrics, or Prometheus text with ?format=prom
//	GET  /slo       per-endpoint SLO burn-rate report
//	GET  /debug/traces  the most recent query traces
//
// Every ingest batch publishes a new snapshot, so a query sees every
// acknowledged batch. With -wal, every batch is fsynced before it is
// acknowledged. Each objective behind /slo is a 1 s latency target.
//
// Usage:
//
//	topkd -addr :8080 -schema name,addr -field name
//	topkd -addr :8080 -field name -in seed.tsv      (warm-start from TSV)
//	topkd -addr :8080 -wal /var/lib/topkd/wal       (durable ingest, replay on boot)
//	topkd -smoke                                    (self-test and exit)
//	topkd -crash-smoke                              (SIGKILL-recovery self-test and exit)
//
// Shutdown is graceful: SIGINT/SIGTERM stops accepting connections and
// drains in-flight queries for up to 10 seconds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	topk "topkdedup"
	"topkdedup/internal/domains"
	"topkdedup/internal/obs"
	"topkdedup/internal/server"
)

// options collects every topkd flag; run consumes it whole.
type options struct {
	addr           string
	schema         string
	field          string
	overlap        float64
	maxInFlight    int
	requestTimeout time.Duration
	maxBatch       int
	workers        int
	in             string
	smoke          bool
	crashSmoke     bool
	walDir         string
	logLevel       string
	smokeProm      string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.schema, "schema", "name", "comma-separated record field schema")
	flag.StringVar(&o.field, "field", "", "primary entity-name field (default: first schema field)")
	flag.Float64Var(&o.overlap, "overlap", 0.5, "necessary-predicate 3-gram overlap threshold")
	flag.IntVar(&o.maxInFlight, "max-inflight", 64, "bounded request queue size; excess requests get 429")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "per-request budget before a 503 (negative disables)")
	flag.IntVar(&o.maxBatch, "max-batch", 10000, "max records per ingest batch")
	flag.IntVar(&o.workers, "workers", 0, "query worker goroutines (0 = GOMAXPROCS)")
	flag.StringVar(&o.in, "in", "", "optional seed TSV/CSV to load and publish before serving")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test: serve on an ephemeral port, run a client session against it, shut down, exit")
	flag.BoolVar(&o.crashSmoke, "crash-smoke", false, "self-test: SIGKILL a child topkd mid-ingest, restart it on the same WAL, verify recovery, exit")
	flag.StringVar(&o.walDir, "wal", "", "write-ahead log directory: ingest is logged and fsynced before it is applied, and replayed on boot (empty disables durability)")
	flag.StringVar(&o.logLevel, "log", "", "structured JSON request logging to stderr: debug, info, warn, or error (empty disables)")
	flag.StringVar(&o.smokeProm, "smoke-prom", "", "with -smoke: write the scraped Prometheus exposition to this file for external validation")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "topkd:", err)
		os.Exit(1)
	}
}

// newLogger builds the slog request logger the -log flag selects; an
// empty level means no logging (the server treats a nil logger as off).
func newLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log level %q (use debug, info, warn, or error)", level)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func run(o options) error {
	if o.crashSmoke {
		return crashSmoke()
	}
	logger, err := newLogger(o.logLevel)
	if err != nil {
		return err
	}
	fields := strings.Split(o.schema, ",")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	field := o.field
	if field == "" {
		field = fields[0]
	}
	found := false
	for _, f := range fields {
		if f == field {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("field %q not in schema %v", field, fields)
	}

	levels, scorer := domains.Generic(field, o.overlap)
	srv, err := server.New(server.Config{
		Schema:         fields,
		Levels:         levels,
		Scorer:         topk.PairScorerFunc(scorer),
		Workers:        o.workers,
		MaxInFlight:    o.maxInFlight,
		RequestTimeout: o.requestTimeout,
		MaxBatch:       o.maxBatch,
		WALDir:         o.walDir,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if n := srv.Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "topkd: recovered %d records from WAL %s\n", n, o.walDir)
	}

	if o.in != "" {
		// A WAL that already holds records wins over the seed file: the
		// recovered state includes the original seed (Seed logs it), and
		// seeding again would double every record.
		if srv.Recovered() > 0 {
			fmt.Fprintf(os.Stderr, "topkd: skipping -in %s (state recovered from WAL)\n", o.in)
		} else {
			var d *topk.Dataset
			if strings.HasSuffix(o.in, ".csv") {
				d, err = topk.LoadDatasetCSV("seed", o.in)
			} else {
				d, err = topk.LoadDataset("seed", o.in)
			}
			if err != nil {
				return err
			}
			n, err := srv.Seed(d)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "topkd: seeded %d records from %s\n", n, o.in)
		}
	}

	addr := o.addr
	if o.smoke {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The "listening on" line keeps its exact shape: crashsmoke.go (and
	// any wrapper script) parses it to learn the ephemeral port.
	version, goVersion := server.BuildInfo()
	fmt.Fprintf(os.Stderr, "topkd: version %s, %s\n", version, goVersion)
	fmt.Fprintf(os.Stderr, "topkd: listening on %s\n", ln.Addr())
	if logger != nil {
		logger.Info("topkd started",
			"version", version, "go", goVersion, "addr", ln.Addr().String())
	}

	if o.smoke {
		err := smokeSession("http://"+ln.Addr().String(), o.smokeProm)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(sctx); err == nil {
			err = serr
		}
		<-serveErr // always http.ErrServerClosed after Shutdown
		if err == nil {
			fmt.Println("topkd: smoke OK")
		}
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "topkd: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	<-serveErr
	return nil
}

// smokeSession drives one end-to-end client session: health check,
// ingest, query, metrics (JSON and Prometheus), SLO report. Any
// unexpected status or malformed body is an error; ci.sh runs this as
// the serving-layer start/stop smoke test. A non-empty promOut names a
// file the scraped Prometheus exposition is written to, so ci.sh can
// diff a real scrape against the OBSERVABILITY.md registry with
// `obscheck -prom`.
func smokeSession(base, promOut string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	var health server.HealthResponse
	if err := getJSON(client, base+"/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if !health.OK {
		return fmt.Errorf("healthz: not ok")
	}
	if health.Status != "ok" || health.Version == "" || health.GoVersion == "" {
		return fmt.Errorf("healthz: build info missing: %+v", health)
	}

	batch := server.IngestRequest{Records: []server.IngestRecord{
		{Values: []string{"acme corp"}},
		{Values: []string{"acme corp."}},
		{Values: []string{"acme corporation"}},
		{Values: []string{"globex"}},
		{Values: []string{"globex inc"}},
		{Values: []string{"initech"}},
	}}
	data, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ing server.IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ing.Accepted != len(batch.Records) {
		return fmt.Errorf("ingest: accepted %d of %d", ing.Accepted, len(batch.Records))
	}

	var tk server.TopKResponse
	if err := getJSON(client, base+"/topk?k=2&r=1", &tk); err != nil {
		return fmt.Errorf("topk: %w", err)
	}
	if tk.Result == nil || len(tk.Result.Answers) == 0 {
		return fmt.Errorf("topk: empty result")
	}
	if tk.Records != len(batch.Records) {
		return fmt.Errorf("topk: snapshot has %d records, want %d", tk.Records, len(batch.Records))
	}

	var rk server.RankResponse
	if err := getJSON(client, base+"/rank?k=2", &rk); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	if rk.Result == nil {
		return fmt.Errorf("rank: empty result")
	}

	// Answer-cache round trip (INCREMENTAL.md): a repeated query on the
	// unchanged epoch must be served from the per-epoch cache, and the
	// X-Cache header must say so.
	if xc, err := getCacheHeader(client, base+"/topk?k=3&r=1"); err != nil {
		return fmt.Errorf("topk cache miss probe: %w", err)
	} else if xc != "miss" {
		return fmt.Errorf("topk cache probe: first query X-Cache=%q, want \"miss\"", xc)
	}
	if xc, err := getCacheHeader(client, base+"/topk?k=3&r=1"); err != nil {
		return fmt.Errorf("topk cache hit probe: %w", err)
	} else if xc != "hit" {
		return fmt.Errorf("topk cache probe: repeat query X-Cache=%q, want \"hit\"", xc)
	}

	// Approximate-tier round trip (SERVING.md "Approximate tier"): approx
	// must answer with the heaviest level-1 groups first and
	// X-Approx-Bound: 0, a misspelled mode must be a typed 400 (never a
	// silent exact answer), and hybrid must serve immediately while naming
	// the exact tier's state.
	ar, bound, err := getApprox(client, base+"/topk?mode=approx&k=2")
	if err != nil {
		return fmt.Errorf("topk approx: %w", err)
	}
	if ar.Mode != "approx" || len(ar.Entries) == 0 {
		return fmt.Errorf("topk approx: bad answer %+v", ar)
	}
	for i := 1; i < len(ar.Entries); i++ {
		if ar.Entries[i].Count > ar.Entries[i-1].Count {
			return fmt.Errorf("topk approx: entries not in decreasing weight: %+v", ar.Entries)
		}
	}
	if bound != "0" {
		return fmt.Errorf("topk approx: %s = %q, want \"0\"", server.XApproxBound, bound)
	}
	if resp, err := client.Get(base + "/topk?mode=aprox"); err != nil {
		return fmt.Errorf("topk mode typo probe: %w", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("topk mode typo probe: status %d, want 400", resp.StatusCode)
		}
	}
	hr, _, err := getApprox(client, base+"/topk?mode=hybrid&k=2")
	if err != nil {
		return fmt.Errorf("topk hybrid: %w", err)
	}
	if hr.Exact != "cached" && hr.Exact != "refreshing" {
		return fmt.Errorf("topk hybrid: exact tier state %q", hr.Exact)
	}

	// EXPLAIN + tracing round trip: the explain query must return the
	// report, name its trace, and that trace must be fetchable in both
	// the JSON and the Chrome trace_event shapes.
	var ex server.TopKResponse
	if err := getJSON(client, base+"/topk?k=2&r=1&explain=1", &ex); err != nil {
		return fmt.Errorf("topk explain: %w", err)
	}
	if ex.Result == nil || ex.Result.Explain == nil {
		return fmt.Errorf("topk explain: no explain report in result")
	}
	if ex.TraceID == "" {
		return fmt.Errorf("topk explain: no trace_id in response")
	}
	var tr server.TraceResponse
	if err := getJSON(client, base+"/debug/traces?trace="+ex.TraceID, &tr); err != nil {
		return fmt.Errorf("debug/traces: %w", err)
	}
	if len(tr.Spans) == 0 {
		return fmt.Errorf("debug/traces: no spans recorded for trace %s", ex.TraceID)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := getJSON(client, base+"/debug/traces?trace="+ex.TraceID+"&format=chrome", &chrome); err != nil {
		return fmt.Errorf("debug/traces chrome: %w", err)
	}
	if len(chrome.TraceEvents) == 0 {
		return fmt.Errorf("debug/traces chrome: empty trace_event array")
	}

	var met server.MetricsResponse
	if err := getJSON(client, base+"/metrics", &met); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if met.Latency["topk"].Count == 0 {
		return fmt.Errorf("metrics: no topk latency samples recorded")
	}

	// Prometheus exposition round trip: the scrape must declare the
	// documented content type and parse cleanly (declared types, monotone
	// buckets, consistent _sum/_count).
	resp, err = client.Get(base + "/metrics?format=prom")
	if err != nil {
		return fmt.Errorf("metrics prom: %w", err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics prom: status %d: %s", resp.StatusCode, promBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		return fmt.Errorf("metrics prom: Content-Type %q, want %q", ct, obs.PromContentType)
	}
	families, err := obs.CheckExposition(bytes.NewReader(promBody))
	if err != nil {
		return fmt.Errorf("metrics prom: exposition does not parse: %v", err)
	}
	if len(families) == 0 {
		return fmt.Errorf("metrics prom: empty exposition")
	}
	if promOut != "" {
		if err := os.WriteFile(promOut, promBody, 0o644); err != nil {
			return fmt.Errorf("metrics prom: %w", err)
		}
	}

	// SLO report round trip: the default objectives must be live and a
	// fast smoke session must not have burnt its error budget.
	var slo server.SLOResponse
	if err := getJSON(client, base+"/slo", &slo); err != nil {
		return fmt.Errorf("slo: %w", err)
	}
	if len(slo.Objectives) == 0 {
		return fmt.Errorf("slo: no objectives reported")
	}
	if slo.Degraded {
		return fmt.Errorf("slo: smoke session reported degraded: %+v", slo.Objectives)
	}
	return nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

// getApprox issues one approximate-tier GET and returns the decoded
// body plus the X-Approx-Bound header value.
func getApprox(client *http.Client, url string) (*server.ApproxTopKResponse, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var ar server.ApproxTopKResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return nil, "", err
	}
	return &ar, resp.Header.Get(server.XApproxBound), nil
}

// getCacheHeader issues one GET and returns the X-Cache answer-cache
// verdict of the response.
func getCacheHeader(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return resp.Header.Get("X-Cache"), nil
}
