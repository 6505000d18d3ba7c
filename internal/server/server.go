// Package server is the concurrent query-serving layer over the
// streaming accumulator: the online front door the paper's batch
// pipeline lacks. It wraps one stream.Incremental behind an
// epoch-snapshot design —
//
//   - Ingest (POST /ingest) mutates the write-side accumulator under a
//     mutex, one JSON batch at a time.
//   - Queries (GET /topk, GET /rank) run against immutable
//     copy-on-write stream.Snapshot epochs, published after every
//     ingest batch (POST /refresh forces one more). Queries therefore
//     never block ingest, never race it, and never observe a
//     half-applied batch: a snapshot is only ever taken at a batch
//     boundary.
//
// The handler stack adds a bounded in-flight slot pool (excess requests
// are rejected immediately with 429 and a Retry-After header), a
// per-request timeout (503 via http.TimeoutHandler), and per-endpoint
// latency histograms + snapshot-age gauges exported over GET /metrics
// in the internal/obs JSON shape. /healthz and /metrics bypass the slot
// pool so the server stays observable under overload. Graceful
// shutdown is the standard http.Server.Shutdown contract: cmd/topkd
// stops accepting connections and drains in-flight queries.
//
// See SERVING.md for the API reference and a worked curl session.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	topk "topkdedup"
	"topkdedup/internal/obs"
	"topkdedup/internal/rankquery"
	"topkdedup/internal/records"
	"topkdedup/internal/stream"
	"topkdedup/internal/wal"
)

// Config configures a Server. Schema and Levels are required; the zero
// value of every other field selects a sensible default.
type Config struct {
	// Name labels the accumulated dataset (default "served").
	Name string
	// Schema is the record field schema; every ingested record must
	// supply exactly one value per field, in order.
	Schema []string
	// Levels is the predicate schedule queries run with.
	Levels []topk.Level
	// Scorer is the final pairwise criterion P for R-best answers. May
	// be nil: queries still run, but R is capped at 1 (see topk.New).
	Scorer topk.PairScorer
	// Workers bounds the worker pool of every query's phases, as
	// topk.Config.Workers does: <= 0 (the default) means all CPUs, 1 runs
	// fully serial, and answers are byte-identical at every count.
	Workers int
	// MaxInFlight bounds the ingest/query requests admitted at once —
	// the request queue of the backpressure design. Requests beyond it
	// receive 429 immediately. Default 64.
	MaxInFlight int
	// RequestTimeout is the per-request handler budget; requests
	// exceeding it receive 503 while the server-side work is abandoned
	// to finish in the background. 0 selects the 30s default; negative
	// disables the timeout.
	RequestTimeout time.Duration
	// MaxBatch caps the records accepted in one ingest batch (default
	// 10000); larger batches are rejected with 400.
	MaxBatch int
	// WALDir, when non-empty, makes ingest durable: every accepted batch
	// is appended (and fsynced, per WALOptions.Sync) to a write-ahead
	// log in this directory BEFORE it is applied, and New replays the
	// log on boot — a killed process recovers with groups and answers
	// byte-identical to an uninterrupted run (SERVING.md "Durability").
	// Empty disables durability (the pre-WAL behaviour).
	WALDir string
	// WALOptions tunes the log (the fsync policy and the test crash
	// hook). The Sink field is ignored — wal.* metrics route to the
	// server collector.
	WALOptions wal.Options
	// Logger, when non-nil, receives structured request logs (one line
	// per query with the trace and span IDs attached, plus debug lines
	// per guarded endpoint). nil disables logging.
	Logger *slog.Logger
}

// runtimeSampleEvery is the period of the background runtime.* health
// sampler (GC pauses, heap, goroutines — see obs.RuntimeSampler).
// /metrics scrapes also sample, but runtime.MemStats keeps only the last
// 256 GC pauses, so without the ticker runtime.gc.pause.seconds would
// miss the pauses between sparse scrapes.
const runtimeSampleEvery = 10 * time.Second

func (c *Config) defaults() error {
	if len(c.Schema) == 0 {
		return fmt.Errorf("server: Schema is required")
	}
	if len(c.Levels) == 0 {
		return fmt.Errorf("server: Levels is required")
	}
	if c.Name == "" {
		c.Name = "served"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	return nil
}

// epoch is one published snapshot with its sequence number and the read
// path's only memo: the epoch's answers and prunings (cache.go,
// INCREMENTAL.md §6), freed with the epoch.
type epoch struct {
	snap  *stream.Snapshot
	seq   uint64
	cache answerCache
}

// Server serves TopK count queries over records that keep arriving. See
// the package comment for the concurrency design. Create with New; the
// zero value is not usable.
type Server struct {
	cfg     Config
	metrics *obs.Collector
	tracer  *obs.Recorder // the last obs.DefaultTraceLimit query traces
	logger  *slog.Logger
	sem     chan struct{}

	mu  sync.Mutex // write side: acc and publication
	acc *stream.Incremental
	// records mirrors acc.Len(), advanced by apply, so Records — and with
	// it /healthz and /metrics — never waits on mu, which an ingest holds
	// across the WAL's fsync.
	records atomic.Int64

	epoch atomic.Pointer[epoch]
	seq   atomic.Uint64

	// Durability state (see durability.go): the open WAL (nil when
	// Config.WALDir is empty) and the records replayed at boot.
	wal       *wal.Log
	recovered int

	// bg tracks hybrid-mode background exact computations and the runtime
	// sampler loop so Close can drain them before releasing durable
	// resources.
	bg sync.WaitGroup

	// Ops-grade telemetry state (slo.go): start time for uptime, the SLO
	// tracker, and the runtime sampler with its ticker stop channel.
	started   time.Time
	slo       *sloTracker
	rtSampler *obs.RuntimeSampler
	rtStop    chan struct{}
	stopOnce  sync.Once
}

// New creates a Server and publishes the initial (empty) snapshot as
// epoch 0, so queries are answerable before the first ingest.
func New(cfg Config) (*Server, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	acc, err := stream.New(cfg.Name, cfg.Schema, cfg.Levels)
	if err != nil {
		return nil, err
	}
	metrics := obs.NewCollector()
	s := &Server{
		cfg:       cfg,
		metrics:   metrics,
		tracer:    obs.NewRecorder(obs.DefaultTraceLimit),
		logger:    cfg.Logger,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		acc:       acc,
		started:   time.Now(),
		slo:       newSLOTracker(metrics),
		rtSampler: obs.NewRuntimeSampler(metrics),
		rtStop:    make(chan struct{}),
	}
	s.bg.Add(1)
	go s.runtimeLoop()
	// Route the accumulator's maintenance metrics (stream.add.*, and the
	// inc.delta.* rebuilt/reused group counts of each publish) into the
	// server collector so /metrics shows ingest-side work too.
	acc.SetMetrics(s.metrics)
	// Recover durable state before the first epoch publishes, so records
	// that survived a crash are queryable from the very first snapshot.
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.epoch.Store(&epoch{snap: acc.Snapshot(), seq: 0})
	return s, nil
}

// runtimeLoop samples the Go runtime health gauges every
// runtimeSampleEvery until Close stops it.
func (s *Server) runtimeLoop() {
	defer s.bg.Done()
	t := time.NewTicker(runtimeSampleEvery)
	defer t.Stop()
	s.rtSampler.Sample()
	for {
		select {
		case <-s.rtStop:
			return
		case <-t.C:
			s.rtSampler.Sample()
		}
	}
}

// Metrics exposes the server's in-memory collector: per-endpoint
// latency histograms, ingest counters, and the per-query core.* phase
// metrics (the same data GET /metrics serves).
func (s *Server) Metrics() *obs.Collector { return s.metrics }

// traceCtx opens the root span of one query request on a fresh trace.
func (s *Server) traceCtx(r *http.Request, name string) (context.Context, *obs.TraceSpan) {
	return s.tracer.StartTrace(r.Context(), name)
}

// Records returns the write-side record count, which runs ahead of the
// published epoch only while a batch is being committed. It takes no
// lock.
func (s *Server) Records() int { return int(s.records.Load()) }

// SnapshotInfo reports the published epoch: its sequence number, the
// records visible to queries, and the snapshot's age.
func (s *Server) SnapshotInfo() (seq uint64, records int, age time.Duration) {
	ep := s.epoch.Load()
	return ep.seq, ep.snap.Len(), time.Since(ep.snap.Taken())
}

// publishLocked freezes the accumulator into a new epoch. Callers hold
// s.mu.
func (s *Server) publishLocked() *epoch {
	ep := &epoch{snap: s.acc.Snapshot(), seq: s.seq.Add(1)}
	s.epoch.Store(ep)
	s.metrics.Count("server.snapshot.published", 1)
	return ep
}

// Seed bulk-loads a pre-built dataset into the accumulator (bypassing
// HTTP) and publishes a snapshot so the records are immediately
// queryable. The dataset's schema must match the server's. Used by
// cmd/topkd to warm a server from a TSV file at startup.
func (s *Server) Seed(d *topk.Dataset) (int, error) {
	if len(d.Schema) != len(s.cfg.Schema) {
		return 0, fmt.Errorf("server: seed schema %v does not match server schema %v", d.Schema, s.cfg.Schema)
	}
	for i, f := range d.Schema {
		if f != s.cfg.Schema[i] {
			return 0, fmt.Errorf("server: seed schema %v does not match server schema %v", d.Schema, s.cfg.Schema)
		}
	}
	for i, rec := range d.Recs {
		if err := records.CheckWeight(rec.Weight); err != nil {
			return 0, fmt.Errorf("server: seed record %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Seeded records follow the same WAL-then-apply ordering as /ingest,
	// so a restart recovers them without re-reading the file.
	if err := s.commitLocked(walRecords(d, s.cfg.Schema)); err != nil {
		return 0, fmt.Errorf("server: seed wal append: %w", err)
	}
	s.metrics.Count("server.ingest.records", int64(len(d.Recs)))
	return len(d.Recs), nil
}

// apply runs one batch through the accumulator in order — the write
// side's only acc.Add loop. /ingest, Seed, and boot recovery's log
// replay all go through it, so a recovered accumulator re-Adds exactly
// the sequence the uninterrupted one did. Callers hold s.mu, or own the
// server alone (New).
func (s *Server) apply(batch wal.Batch) {
	for _, rec := range batch {
		s.acc.Add(rec.Weight, rec.Truth, rec.Values...)
	}
	s.records.Add(int64(len(batch)))
}

// commitLocked makes one validated batch part of the write-side state:
// WAL-then-apply (a batch that cannot be made durable is never applied,
// so an acknowledged batch is always recoverable and a failed one leaves
// no trace), then a new epoch. Callers hold s.mu.
func (s *Server) commitLocked(batch wal.Batch) error {
	if s.wal != nil {
		if _, err := s.wal.Append(batch); err != nil {
			return err
		}
	}
	s.apply(batch)
	s.publishLocked()
	return nil
}

// Handler returns the server's HTTP handler. It is safe to serve from
// multiple http.Server instances concurrently.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/ingest", s.guard("ingest", http.MethodPost, s.handleIngest))
	mux.Handle("/refresh", s.guard("refresh", http.MethodPost, s.handleRefresh))
	mux.Handle("/topk", s.guard("topk", http.MethodGet, s.handleTopK))
	mux.Handle("/rank", s.guard("rank", http.MethodGet, s.handleRank))
	// Health, metrics, SLO state, and traces bypass the slot pool and
	// timeout: they must answer even when the query path is saturated.
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	return mux
}

// guard wraps an endpoint handler with, outermost first: the request
// timeout (503 on expiry), then the bounded slot pool (429 when full —
// the slot is held until the handler truly finishes, even past a
// timeout response, so MaxInFlight bounds real server-side work), then
// method filtering and per-endpoint latency metrics.
func (s *Server) guard(name, method string, h http.HandlerFunc) http.Handler {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, "method not allowed, use "+method)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.metrics.Count("server.http.throttled", 1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			// Capacity rejections consume the endpoint's error budget.
			s.slo.record(name, http.StatusTooManyRequests, 0)
			return
		}
		defer func() { <-s.sem }()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.Count("server.http."+name+".requests", 1)
		s.metrics.Observe("server.http."+name+".seconds", elapsed.Seconds())
		s.slo.record(name, rec.code(), elapsed)
		if s.logger != nil {
			s.logger.Debug("request", "endpoint", name, "seconds", elapsed.Seconds())
		}
	})
	if s.cfg.RequestTimeout <= 0 {
		return inner
	}
	return http.TimeoutHandler(inner, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
}

// statusRecorder captures the status code a guarded handler writes so
// the SLO tracker can classify the request; an unset status means the
// implicit 200 of a bare Write.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first explicit status and forwards it.
func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// code returns the effective response status.
func (r *statusRecorder) code() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// IngestRecord is one record of an ingest batch, values aligned with
// the server's schema.
type IngestRecord struct {
	// Weight is the record's aggregation weight; omitted or 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Truth is the optional ground-truth label (evaluation only).
	Truth string `json:"truth,omitempty"`
	// Values are the field values, in schema order.
	Values []string `json:"values"`
}

// IngestRequest is the POST /ingest body: one batch of records,
// applied atomically with respect to snapshots.
type IngestRequest struct {
	// Records is the batch (non-empty, at most Config.MaxBatch).
	Records []IngestRecord `json:"records"`
}

// IngestResponse reports an accepted batch.
type IngestResponse struct {
	// Accepted is the number of records appended (the whole batch).
	Accepted int `json:"accepted"`
	// Records is the write-side total after the batch.
	Records int `json:"records"`
	// SnapshotSeq is the epoch the batch published.
	SnapshotSeq uint64 `json:"snapshot_seq"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest body: "+err.Error())
		return
	}
	if len(req.Records) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Records) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Records), s.cfg.MaxBatch))
		return
	}
	// Validate the whole batch before touching the accumulator, so a
	// bad record cannot leave a half-applied batch behind.
	for i, rec := range req.Records {
		if len(rec.Values) != len(s.cfg.Schema) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("record %d: %d values for schema of %d fields", i, len(rec.Values), len(s.cfg.Schema)))
			return
		}
		if err := records.CheckWeight(rec.Weight); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("record %d: %v", i, err))
			return
		}
	}
	// The batch is normalised once (omitted weights default to 1) so the
	// WAL logs exactly what the accumulator applies: replay re-Adds the
	// same sequence and recovery is byte-identical.
	batch := walBatch(req.Records)
	s.mu.Lock()
	if err := s.commitLocked(batch); err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "wal append: "+err.Error())
		return
	}
	total := s.acc.Len()
	seq := s.epoch.Load().seq
	s.mu.Unlock()
	s.metrics.Count("server.ingest.records", int64(len(req.Records)))
	s.metrics.Count("server.ingest.batches", 1)
	writeJSON(w, http.StatusOK, IngestResponse{
		Accepted: len(req.Records), Records: total, SnapshotSeq: seq,
	})
}

// RefreshResponse reports a forced snapshot publication.
type RefreshResponse struct {
	// SnapshotSeq is the new epoch's sequence number.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Records is the record count visible in the new snapshot.
	Records int `json:"records"`
}

func (s *Server) handleRefresh(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ep := s.publishLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, RefreshResponse{SnapshotSeq: ep.seq, Records: ep.snap.Len()})
}

// TopKResponse is the GET /topk body: the engine result over the
// published snapshot, plus the epoch it was answered from.
type TopKResponse struct {
	// K and R echo the query parameters.
	K int `json:"k"`
	// R is the number of alternative answers requested, as sent: a value
	// below 1 is echoed as is and answered as 1.
	R int `json:"r"`
	// SnapshotSeq identifies the epoch the answer was computed on.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Records is the record count of that epoch.
	Records int `json:"records"`
	// Result is the full engine result (answers, pruning stats). Its
	// bytes are identical to marshalling topk.Engine.TopK run over the
	// same records in one shot — the differential tests' contract.
	Result *topk.Result `json:"result"`
	// TraceID names the query's trace (fetch the span tree from
	// /debug/traces?trace=<id>).
	TraceID string `json:"trace_id,omitempty"`
}

// MaxR is the largest R /topk accepts; above it the request is a 400
// with code "bad_param". The final phase asks the R-best segmentation
// for 6R+10 rankings and each of its DP rows holds that many cells, so
// memory and time grow linearly in R with no context to stop them — at
// the 84 positions of a K = 10 citations pruning, R = 100,000 allocates
// about 2 GB, and a larger R ends the process. Every workload, example
// and CLI default asks R <= 3.
const MaxR = 100

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q, aerr := parseQuery(r, "k", "r", "explain", "mode")
	if aerr != nil {
		writeTypedError(w, http.StatusBadRequest, aerr.code, aerr.msg)
		return
	}
	// The engine answers r < 1 as r = 1 (Engine.TopKFromCtx), so they are
	// one answer and one memo entry; only the echoed R keeps what was
	// sent.
	rr := max(q.r, 1)
	if q.mode != ModeExact {
		s.handleApprox(w, r, q.mode, q.k, rr)
		return
	}
	ctx, root := s.traceCtx(r, "server.topk")
	root.Attr("k", float64(q.k))
	root.Attr("r", float64(rr))
	start := time.Now()
	ep := s.epoch.Load()
	var res *topk.Result
	var err error
	status := cacheBypass
	if q.explain {
		s.metrics.Count("inc.cache.bypass", 1)
		res, err = s.computeExact(ctx, ep, q.k, rr, true)
	} else {
		var ent *answerEntry
		ent, status, err = s.answer(ctx, ep, answerKey{kind: 't', k: q.k, r: rr}, false, func(ent *answerEntry) (err error) {
			ent.topk, err = s.computeExact(ctx, ep, q.k, rr, false)
			return err
		})
		if err == nil {
			res = ent.topk
		}
	}
	root.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := TopKResponse{
		K: q.k, R: q.r, SnapshotSeq: ep.seq, Records: ep.snap.Len(), Result: res,
		TraceID: root.TraceID().String(),
	}
	if s.logger != nil {
		s.logger.Info("topk query", "k", q.k, "r", rr,
			"snapshot_seq", ep.seq, "cache", status, "seconds", time.Since(start).Seconds(),
			"trace", resp.TraceID, "span", root.SpanID().String())
	}
	w.Header().Set("X-Cache", status)
	writeJSON(w, http.StatusOK, resp)
}

// RankResponse is the GET /rank body: a §7 rank-query result over the
// published snapshot.
type RankResponse struct {
	// K echoes the k parameter (TopK rank query form).
	K int `json:"k,omitempty"`
	// T echoes the t parameter (thresholded rank query form).
	T float64 `json:"t,omitempty"`
	// SnapshotSeq identifies the epoch the answer was computed on.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Records is the record count of that epoch.
	Records int `json:"records"`
	// Result is the rank-query result (entries, settledness).
	Result *topk.RankResult `json:"result"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q, aerr := parseQuery(r, "k", "t")
	if aerr != nil {
		writeTypedError(w, http.StatusBadRequest, aerr.code, aerr.msg)
		return
	}
	ep := s.epoch.Load()
	key := answerKey{kind: 'k', k: q.k}
	if q.t > 0 {
		key = answerKey{kind: 'r', t: q.t}
	} else if ep.snap.Len() == 0 {
		// Nothing to rank; answer the empty epoch directly, outside the
		// memo.
		w.Header().Set("X-Cache", cacheBypass)
		writeJSON(w, http.StatusOK, RankResponse{K: q.k, SnapshotSeq: ep.seq, Result: &topk.RankResult{}})
		return
	}
	ctx, root := s.traceCtx(r, "server.rank")
	if key.kind == 'r' {
		root.Attr("t", key.t)
	} else {
		root.Attr("k", float64(key.k))
	}
	start := time.Now()
	ent, status, err := s.answer(ctx, ep, key, false, func(ent *answerEntry) error {
		if key.kind == 'r' {
			pd, err := ep.snap.ThresholdCtx(ctx, key.t, s.cfg.Workers, s.metrics)
			if err != nil {
				return err
			}
			ent.rank = rankquery.FromThreshold(ep.snap.Dataset(), s.cfg.Levels, pd, key.t)
			return nil
		}
		pd, err := s.pruned(ctx, ep, key.k, false)
		if err != nil {
			return err
		}
		ent.rank, err = s.finalEngine(ep, false).TopKRankFrom(pd, key.k)
		return err
	})
	root.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.logger != nil {
		s.logger.Info("rank query", "k", key.k, "t", key.t, "snapshot_seq", ep.seq, "cache", status,
			"seconds", time.Since(start).Seconds(),
			"trace", root.TraceID().String(), "span", root.SpanID().String())
	}
	w.Header().Set("X-Cache", status)
	writeJSON(w, http.StatusOK, RankResponse{K: key.k, T: key.t, SnapshotSeq: ep.seq, Records: ep.snap.Len(), Result: ent.rank})
}

// computeExact runs the exact TopK pipeline over an epoch — the compute
// step of a /topk miss, of ?explain=1 and of hybrid mode's background
// refresh: the epoch's pruning for K (pruned), then the final phase for
// (K, R) on a per-query engine.
func (s *Server) computeExact(ctx context.Context, ep *epoch, k, rr int, explain bool) (*topk.Result, error) {
	pd, err := s.pruned(ctx, ep, k, explain)
	if err != nil {
		return nil, err
	}
	return s.finalEngine(ep, explain).TopKFromCtx(ctx, pd, k, rr)
}

// pruned is the server's one way to a pruning result: the epoch memo's
// 'p' entry for K, so the K-dependent phases run at most once per
// (epoch, K) however many (K, R) and /rank?k=K queries finish from them
// (INCREMENTAL.md §1). explain prunes afresh outside the memo, so
// ?explain=1 reports from a full span tree. The result is shared between
// queries and read-only.
func (s *Server) pruned(ctx context.Context, ep *epoch, k int, explain bool) (*topk.PrunedResult, error) {
	if explain {
		return ep.snap.TopKCtx(ctx, k, s.cfg.Workers, s.metrics)
	}
	ent, _, err := s.answer(ctx, ep, answerKey{kind: 'p', k: k}, false, func(ent *answerEntry) (err error) {
		ent.pruned, err = ep.snap.TopKCtx(ctx, k, s.cfg.Workers, s.metrics)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ent.pruned, nil
}

// finalEngine builds the per-query engine over an epoch's frozen
// dataset, for the phases after pruning (Engine.TopKFromCtx,
// TopKRankFrom). Engines are cheap stateless wrappers; every query gets
// a fresh one so epochs can be garbage collected as they age out.
// explain turns on the engine's per-query EXPLAIN report (the ?explain=1
// form); the query's spans land in the server's tracer via the traced
// request context.
func (s *Server) finalEngine(ep *epoch, explain bool) *topk.Engine {
	return topk.New(ep.snap.Dataset(), s.cfg.Levels, s.cfg.Scorer,
		topk.Config{Workers: s.cfg.Workers, Metrics: s.metrics, Explain: explain})
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// OK is always true when the handler answers at all.
	OK bool `json:"ok"`
	// Status is "ok", or "degraded" while an SLO fast-burn threshold is
	// tripped (see slo.go). Observational: a degraded server still
	// answers everything; load balancers may use it to drain the node.
	Status string `json:"status"`
	// Records is the write-side record count.
	Records int `json:"records"`
	// SnapshotSeq is the published epoch's sequence number.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotRecords is the record count visible to queries.
	SnapshotRecords int `json:"snapshot_records"`
	// SnapshotAgeSeconds is the published epoch's age.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// Version is the module build version (runtime/debug.ReadBuildInfo;
	// "(devel)" for go-run binaries).
	Version string `json:"version"`
	// GoVersion is the Go toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// UptimeSeconds is the time since the Server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// buildInfoOnce resolves the binary's build metadata once per process.
var buildInfoOnce = sync.OnceValues(func() (string, string) {
	version, goVersion := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
})

// BuildInfo reports the module build version and Go toolchain baked
// into the running binary — the same values /healthz serves and topkd
// logs at startup.
func BuildInfo() (version, goVersion string) { return buildInfoOnce() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ep := s.epoch.Load()
	status := "ok"
	if s.slo.degraded() {
		status = "degraded"
	}
	version, goVersion := BuildInfo()
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:                 true,
		Status:             status,
		Records:            s.Records(),
		SnapshotSeq:        ep.seq,
		SnapshotRecords:    ep.snap.Len(),
		SnapshotAgeSeconds: time.Since(ep.snap.Taken()).Seconds(),
		Version:            version,
		GoVersion:          goVersion,
		UptimeSeconds:      time.Since(s.started).Seconds(),
	})
}

// LatencySummary condenses one endpoint's latency histogram for the
// /metrics body. Quantiles are log2-bucket estimates (within one
// octave, see obs.Dist.Quantile).
type LatencySummary struct {
	// Count is the number of completed requests.
	Count int64 `json:"count"`
	// P50Seconds and P99Seconds estimate the latency quantiles.
	P50Seconds float64 `json:"p50_seconds"`
	// P99Seconds estimates the 99th-percentile latency.
	P99Seconds float64 `json:"p99_seconds"`
	// MaxSeconds is the slowest completed request.
	MaxSeconds float64 `json:"max_seconds"`
}

// MetricsResponse is the GET /metrics body: serving-level gauges, the
// per-endpoint latency summaries, and the full obs snapshot (every
// server.*, core.*, engine.*, stream.* metric recorded since start).
type MetricsResponse struct {
	// Records is the write-side record count.
	Records int `json:"records"`
	// SnapshotSeq is the published epoch's sequence number.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotAgeSeconds is the published epoch's age.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// Latency summarises the server.http.<endpoint>.seconds histograms.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
	// Phases is the full metrics snapshot in the obs JSON shape.
	Phases *obs.Snapshot `json:"phases"`
}

// latencyEndpoints are the endpoints /metrics summarises.
var latencyEndpoints = []string{"ingest", "refresh", "topk", "rank"}

// metricsFormat resolves the /metrics response format: an explicit
// ?format=json|prom wins; otherwise the Accept header negotiates (a
// text/plain or OpenMetrics preference selects the Prometheus text
// exposition, anything else the pre-existing JSON shape).
func metricsFormat(r *http.Request) (string, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "json", "prom":
		return format, nil
	case "":
	default:
		return "", fmt.Errorf("format must be json or prom, got %q", format)
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		return "prom", nil
	}
	return "json", nil
}

// refreshHealthGauges brings every point-in-time gauge current right
// before a scrape: epoch/record state, uptime, the runtime sampler, and
// the SLO burn rates. Counters and histograms are
// cumulative and need no refresh.
func (s *Server) refreshHealthGauges() {
	ep := s.epoch.Load()
	s.metrics.Gauge("server.snapshot.seq", float64(ep.seq))
	s.metrics.Gauge("server.snapshot.age_seconds", time.Since(ep.snap.Taken()).Seconds())
	s.metrics.Gauge("server.records", float64(s.Records()))
	s.metrics.Gauge("server.uptime_seconds", time.Since(s.started).Seconds())
	s.rtSampler.Sample()
	s.slo.refreshGauges()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format, err := metricsFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.refreshHealthGauges()
	// Scrapes are point-in-time by definition; an intermediary replaying
	// a cached body would invert every rate() over it.
	w.Header().Set("Cache-Control", "no-store")
	if format == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		// A write failure here means the scraper hung up; nothing to do.
		s.metrics.WritePrometheus(w)
		return
	}
	ep := s.epoch.Load()
	snap := s.metrics.Snapshot()
	resp := MetricsResponse{
		Records:            s.Records(),
		SnapshotSeq:        ep.seq,
		SnapshotAgeSeconds: time.Since(ep.snap.Taken()).Seconds(),
		Phases:             snap,
	}
	for _, name := range latencyEndpoints {
		d, ok := snap.Observations["server.http."+name+".seconds"]
		if !ok {
			continue
		}
		if resp.Latency == nil {
			resp.Latency = make(map[string]LatencySummary, len(latencyEndpoints))
		}
		resp.Latency[name] = LatencySummary{
			Count:      d.Count,
			P50Seconds: d.Quantile(0.50),
			P99Seconds: d.Quantile(0.99),
			MaxSeconds: d.Max,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator, present on the
	// typed request-validation failures ("unknown_param", "bad_param",
	// "bad_mode"); absent elsewhere so pre-existing error bodies are
	// unchanged.
	Code string `json:"code,omitempty"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

func writeTypedError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

// apiError is a typed request-validation failure: a stable code plus
// the human-readable message, serialised as ErrorResponse.
type apiError struct {
	code string
	msg  string
}

// query is one /topk or /rank request's validated parameters.
type query struct {
	// k is 10 when absent.
	k int
	// r is 1 when absent; a value below 1 is kept as sent.
	r int
	// t is 0 when absent.
	t       float64
	explain bool
	// mode is ModeExact when absent.
	mode string
}

// parseQuery validates a /topk or /rank query string strictly, so a
// typo never silently serves a default. A name outside allowed is
// unknown_param; a k that is not an integer >= 1, an r that is not an
// integer <= MaxR, a t that is not a positive finite number, k and t
// together, or an explain other than 0 or 1 is bad_param; a mode other
// than exact, approx or hybrid is bad_mode.
func parseQuery(req *http.Request, allowed ...string) (query, *apiError) {
	v := req.URL.Query()
	var unknown []string
	for name := range v {
		if !slices.Contains(allowed, name) {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		msg := "unknown query parameter "
		if len(unknown) > 1 {
			msg = "unknown query parameters "
		}
		return query{}, &apiError{code: "unknown_param", msg: msg + strings.Join(unknown, ", ")}
	}
	bad := func(format string, args ...any) (query, *apiError) {
		return query{}, &apiError{code: "bad_param", msg: fmt.Sprintf(format, args...)}
	}
	q := query{mode: ModeExact}
	var err error
	if q.k, err = intParam(v, "k", 10); err != nil {
		return bad("%v", err)
	}
	if q.k < 1 {
		return bad("k must be >= 1, got %d", q.k)
	}
	if q.r, err = intParam(v, "r", 1); err != nil {
		return bad("%v", err)
	}
	if q.r > MaxR {
		return bad("r must be <= %d, got %d", MaxR, q.r)
	}
	if raw := v.Get("t"); raw != "" {
		if v.Get("k") != "" {
			return bad("k and t are exclusive: k asks the TopK rank query, t the thresholded one")
		}
		t, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(t > 0) || math.IsInf(t, 0) {
			return bad("t must be a positive number, got %q", raw)
		}
		q.t = t
	}
	switch ex := v.Get("explain"); ex {
	case "", "0":
	case "1":
		q.explain = true
	default:
		return bad("explain must be 0 or 1, got %q", ex)
	}
	switch mode := v.Get("mode"); mode {
	case "":
	case ModeExact, ModeApprox, ModeHybrid:
		q.mode = mode
	default:
		return query{}, &apiError{code: "bad_mode",
			msg: "mode must be exact, approx, or hybrid, got " + strconv.Quote(mode)}
	}
	return q, nil
}

func intParam(v url.Values, name string, def int) (int, error) {
	raw := v.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s must be an integer, got %q", name, raw)
	}
	return n, nil
}
