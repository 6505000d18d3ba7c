package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	topk "topkdedup"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
	"topkdedup/internal/wal"
)

// Toy domain shared with the stream/core tests: S = exact name match,
// N = shared first letter, scorer = signed common-prefix similarity.
// All pure functions — safe for any concurrency.
func toyLevels() []topk.Level {
	s := predicate.P{
		Name: "S",
		Eval: func(a, b *records.Record) bool {
			return a.Field("name") != "" && a.Field("name") == b.Field("name")
		},
		Keys: func(r *records.Record) []string { return []string{"s:" + r.Field("name")} },
	}
	n := predicate.P{
		Name: "N",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) > 0 && len(nb) > 0 && na[0] == nb[0]
		},
		Keys: func(r *records.Record) []string {
			v := r.Field("name")
			if v == "" {
				return nil
			}
			return []string{"n:" + v[:1]}
		},
	}
	return []predicate.Level{{Sufficient: s, Necessary: n}}
}

func toyScorer() topk.PairScorer {
	return topk.PairScorerFunc(func(a, b *records.Record) float64 {
		na, nb := a.Field("name"), b.Field("name")
		common := 0
		for common < len(na) && common < len(nb) && na[common] == nb[common] {
			common++
		}
		return float64(2*common) - 6 // positive for >=3 common prefix chars
	})
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Schema: []string{"name"},
		Levels: toyLevels(),
		Scorer: toyScorer(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// traceIDField matches the trace_id member of a /topk body: the one
// field two answers to the same query on the same epoch differ in.
var traceIDField = regexp.MustCompile(`,"trace_id":"[0-9a-f]*"`)

// withoutTraceID returns body with its trace_id member removed.
func withoutTraceID(body []byte) []byte { return traceIDField.ReplaceAll(body, nil) }

func ingestBatch(t *testing.T, ts *httptest.Server, recs []IngestRecord) IngestResponse {
	t.Helper()
	resp := postJSON(t, ts, "/ingest", IngestRequest{Records: recs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("ingest decode: %v", err)
	}
	return out
}

func postJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func names(ns ...string) []IngestRecord {
	out := make([]IngestRecord, len(ns))
	for i, n := range ns {
		out[i] = IngestRecord{Values: []string{n}}
	}
	return out
}

func TestIngestThenTopK(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ir := ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol"))
	if ir.Records != 6 || ir.SnapshotSeq != 1 {
		t.Fatalf("unexpected ingest response: %+v", ir)
	}
	resp, body := get(t, ts, "/topk?k=2&r=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: status %d: %s", resp.StatusCode, body)
	}
	var out TopKResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SnapshotSeq != 1 || out.Records != 6 {
		t.Fatalf("topk answered from wrong epoch: %+v", out)
	}
	if len(out.Result.Answers) == 0 || len(out.Result.Answers[0].Groups) != 2 {
		t.Fatalf("want 2 answer groups, got %+v", out.Result)
	}
	top := out.Result.Answers[0].Groups[0]
	if top.Weight != 3 {
		t.Fatalf("top group should be the 3 alices, got weight %v", top.Weight)
	}
}

func TestRankEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "xavier"))
	resp, body := get(t, ts, "/rank?k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d: %s", resp.StatusCode, body)
	}
	var out RankResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Entries) == 0 {
		t.Fatal("rank returned no entries")
	}
	resp, body = get(t, ts, "/rank?t=1.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("thresholded rank: status %d: %s", resp.StatusCode, body)
	}
	var thr RankResponse
	if err := json.Unmarshal(body, &thr); err != nil {
		t.Fatal(err)
	}
	for _, e := range thr.Result.Entries {
		if e.Upper < e.Group.Weight {
			t.Fatalf("entry upper bound below weight: %+v", e)
		}
	}
}

func TestQueriesOnEmptyServer(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{"/topk?k=3", "/rank?k=3", "/rank?t=2", "/healthz", "/metrics"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on empty server: status %d: %s", path, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Fatalf("%s: invalid JSON: %s", path, body)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 3 })
	cases := []struct {
		name string
		body string
	}{
		{"not json", `nope`},
		{"empty batch", `{"records":[]}`},
		{"schema mismatch", `{"records":[{"values":["a","b"]}]}`},
		{"negative weight", `{"records":[{"weight":-1,"values":["a"]}]}`},
		{"oversized batch", `{"records":[{"values":["a"]},{"values":["b"]},{"values":["c"]},{"values":["d"]}]}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d: %s", tc.name, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not well-formed: %s", tc.name, body)
		}
	}
	// A rejected batch must leave no partial state behind.
	srv, ts2 := newTestServer(t, nil)
	resp := postJSON(t, ts2, "/ingest", IngestRequest{Records: []IngestRecord{
		{Values: []string{"ok"}}, {Values: []string{"bad", "extra"}},
	}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch: want 400, got %d", resp.StatusCode)
	}
	if srv.Records() != 0 {
		t.Fatalf("rejected batch left %d records behind", srv.Records())
	}
}

func TestMethodFiltering(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts, "/ingest")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: want 405, got %d", resp.StatusCode)
	}
	resp2 := postJSON(t, ts, "/topk", struct{}{})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /topk: want 405, got %d", resp2.StatusCode)
	}
}

// TestBadQueryParams: /topk and /rank validate through one parameter
// check, so every malformed query is a typed 400 naming what is wrong —
// an unknown name, k and t together, or a k that is no integer never
// falls back to a default.
func TestBadQueryParams(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		path, code, says string
	}{
		{"/topk?k=zero", "bad_param", "k must be an integer"},
		{"/topk?k=0", "bad_param", "k must be >= 1"},
		{"/topk?k=-3", "bad_param", "k must be >= 1"},
		{"/rank?k=0", "bad_param", "k must be >= 1"},
		{"/rank?k=abc", "bad_param", "k must be an integer"},
		{"/rank?t=-1", "bad_param", "t must be a positive number"},
		{"/rank?t=nan", "bad_param", "t must be a positive number"},
		{"/rank?k=2&t=1.5", "bad_param", "k and t"},
		{"/rank?kk=3", "unknown_param", `"kk"`},
		{"/rank?k=2&explain=1", "unknown_param", `"explain"`},
		{"/rank?r=2&mode=exact", "unknown_param", `"mode", "r"`},
	}
	for _, tc := range cases {
		resp, body := get(t, ts, tc.path)
		var er ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil ||
			er.Code != tc.code || !strings.Contains(er.Error, tc.says) {
			t.Errorf("%s: status %d, body %s; want 400 %s saying %s", tc.path, resp.StatusCode, body, tc.code, tc.says)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInFlight = 2 })
	// Occupy every slot; the next request must be turned away at once.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()
	resp, body := get(t, ts, "/topk?k=1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body not well-formed: %s", body)
	}
	// Health stays reachable under saturation.
	resp, _ = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", resp.StatusCode)
	}
	if srv.Metrics().CounterValue("server.http.throttled") == 0 {
		t.Fatal("throttle counter not incremented")
	}
}

func TestRequestTimeout(t *testing.T) {
	// The slow predicate is the *necessary* one: ingest only evaluates
	// the sufficient predicate (distinct names, so zero evaluations) and
	// stays fast, while the query-time bound/prune phases stall and trip
	// the timeout.
	slow := predicate.P{
		Name: "N-slow",
		Eval: func(a, b *records.Record) bool {
			time.Sleep(20 * time.Millisecond)
			return true
		},
		Keys: func(r *records.Record) []string { return []string{"n"} }, // everything collides
	}
	s := toyLevels()[0].Sufficient
	_, ts := newTestServer(t, func(c *Config) {
		c.Levels = []predicate.Level{{Sufficient: s, Necessary: slow}}
		c.RequestTimeout = 5 * time.Millisecond
	})
	ingestBatch(t, ts, names("a1", "a2", "a3", "a4"))
	resp, body := get(t, ts, "/topk?k=2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 on timeout, got %d: %s", resp.StatusCode, body)
	}
	if !json.Valid(body) {
		t.Fatalf("timeout body not JSON: %s", body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "bob"))
	get(t, ts, "/topk?k=2") // generate one query's latency sample

	_, body := get(t, ts, "/healthz")
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Records != 3 || h.SnapshotRecords != 3 || h.SnapshotSeq != 1 {
		t.Fatalf("healthz: %+v", h)
	}
	if h.SnapshotAgeSeconds < 0 {
		t.Fatalf("negative snapshot age: %v", h.SnapshotAgeSeconds)
	}

	_, body = get(t, ts, "/metrics")
	var m MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Records != 3 || m.SnapshotSeq != 1 {
		t.Fatalf("metrics header: %+v", m)
	}
	lat, ok := m.Latency["topk"]
	if !ok || lat.Count < 1 || lat.P50Seconds <= 0 || lat.P99Seconds < lat.P50Seconds {
		t.Fatalf("topk latency summary missing or malformed: %+v", m.Latency)
	}
	if m.Phases == nil || m.Phases.Counters["server.ingest.records"] != 3 {
		t.Fatalf("phases snapshot missing ingest counter: %+v", m.Phases)
	}
	if _, ok := m.Phases.Gauges["server.snapshot.seq"]; !ok {
		t.Fatal("snapshot gauges not refreshed")
	}
}

// TestProbesAnswerWhileIngestInWAL parks an /ingest inside wal.Append —
// where the write lock is held across the fsync — and requires the
// endpoints that "must answer even when the query path is saturated" to
// answer anyway, with the pre-batch record count.
func TestProbesAnswerWhileIngestInWAL(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	srv, ts := newTestServer(t, func(c *Config) {
		c.WALDir = t.TempDir()
		c.WALOptions = wal.Options{Hook: func(p wal.CrashPoint, idx uint64) error {
			if p == wal.CrashAfterFrame && idx == 1 {
				close(parked)
				<-release
			}
			return nil
		}}
	})
	defer srv.Close()
	ingestBatch(t, ts, names("alice", "alice", "bob"))
	probes := []string{"/healthz", "/metrics?format=prom", "/metrics"}
	for _, path := range probes {
		get(t, ts, path) // warm the connection and the once-per-process state
	}

	body, _ := json.Marshal(IngestRequest{Records: names("carol")})
	ingested := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			ingested <- 0
			return
		}
		resp.Body.Close()
		ingested <- resp.StatusCode
	}()
	<-parked
	client := &http.Client{Timeout: 100 * time.Millisecond}
	fetch := func(path string) ([]byte, error) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	for _, path := range probes {
		// A probe that waits on the write lock misses every attempt; one
		// that lost the CPU to another test package passes the next.
		data, err := fetch(path)
		for attempt := 1; attempt < 3 && err != nil; attempt++ {
			data, err = fetch(path)
		}
		if err != nil {
			t.Errorf("%s did not answer within 100ms while an ingest is inside wal.Append: %v", path, err)
			continue
		}
		if path == "/healthz" {
			var h HealthResponse
			if err := json.Unmarshal(data, &h); err != nil || h.Records != 3 {
				t.Errorf("healthz during the parked ingest: records %d (err %v), want the 3 applied", h.Records, err)
			}
		}
	}
	close(release)
	if code := <-ingested; code != http.StatusOK {
		t.Fatalf("parked ingest answered %d after release", code)
	}
	if got := srv.Records(); got != 4 {
		t.Fatalf("records after release: %d, want 4", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Levels: toyLevels()}); err == nil {
		t.Fatal("missing schema should error")
	}
	if _, err := New(Config{Schema: []string{"name"}}); err == nil {
		t.Fatal("missing levels should error")
	}
}

func TestWeightedIngest(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, []IngestRecord{
		{Weight: 10, Values: []string{"whale"}},
		{Values: []string{"minnow"}}, // weight defaults to 1
		{Values: []string{"minnow"}},
	})
	_, body := get(t, ts, "/topk?k=1")
	var out TopKResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	g := out.Result.Answers[0].Groups[0]
	if g.Weight != 10 {
		t.Fatalf("weighted record should top the ranking: %+v", g)
	}
	if fmt.Sprint(out.Result.Answers[0].Groups) == "" {
		t.Fatal("unreachable")
	}
}
