package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"topkdedup/internal/obs"
)

// TestObservabilityHeaders pins the header contract of the unguarded
// endpoints: scrape and health bodies must never be cached by an
// intermediary, and every format announces an explicit content type.
func TestObservabilityHeaders(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "bob"))

	cases := []struct {
		path        string
		contentType string
	}{
		{"/metrics", "application/json"},
		{"/metrics?format=json", "application/json"},
		{"/metrics?format=prom", obs.PromContentType},
		{"/healthz", "application/json"},
		{"/slo", "application/json"},
	}
	for _, tc := range cases {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, got, tc.contentType)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s: Cache-Control %q, want no-store", tc.path, got)
		}
	}

	// Accept-header negotiation: a text/plain or OpenMetrics preference
	// selects the Prometheus exposition without ?format=.
	for _, accept := range []string{"text/plain", "application/openmetrics-text"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
			t.Errorf("Accept %q: Content-Type %q, want prom exposition", accept, got)
		}
	}

	// An unknown format is a 400, not a silent JSON fallback.
	resp, body := get(t, ts, "/metrics?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: want 400, got %d: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("format=xml error body not well-formed: %s", body)
	}
}

// TestPromScrapeCoversRegistry scrapes a server that has exercised the
// ingest, query, approx, and trace paths and checks the exposition
// parses cleanly and carries the load-bearing metric families.
func TestPromScrapeCoversRegistry(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol"))
	get(t, ts, "/topk?k=2&r=1")
	get(t, ts, "/topk?k=2&mode=approx")
	get(t, ts, "/rank?k=2")

	resp, body := get(t, ts, "/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape: status %d: %s", resp.StatusCode, body)
	}
	families, err := obs.CheckExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	have := make(map[string]bool, len(families))
	for _, f := range families {
		have[f] = true
	}
	for _, want := range []string{
		"server_ingest_records_total",
		"server_http_topk_requests_total",
		"server_http_topk_seconds",
		"server_snapshot_seq",
		"server_uptime_seconds",
		"runtime_goroutines",
		"runtime_heap_alloc_bytes",
		"slo_degraded",
		"slo_topk_burn_rate_fast",
		"sketch_serve_approx_total",
	} {
		if !have[want] {
			t.Errorf("exposition missing family %q", want)
		}
	}
}

// TestScrapeDifferential is the observational-purity anchor: a server
// scraped aggressively between ingest batches — both formats — must
// serve exactly the answers an unscraped twin serves over the same
// records. Approx bodies byte-compare once their trace ids are removed.
func TestScrapeDifferential(t *testing.T) {
	_, scraped := newTestServer(t, nil)
	_, control := newTestServer(t, nil)

	r := rand.New(rand.NewSource(4242))
	for batch := 0; batch < 3; batch++ {
		recs := make([]IngestRecord, 20)
		for i := range recs {
			e := r.Intn(8)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Values: []string{fmt.Sprintf("%c%02d.v%d", 'a'+e%4, e, r.Intn(2))},
			}
		}
		ingestBatch(t, scraped, recs)
		ingestBatch(t, control, recs)
		// Hammer the scrape endpoints between batches; answers must not move.
		for i := 0; i < 3; i++ {
			for _, path := range []string{"/metrics", "/metrics?format=prom", "/slo", "/healthz"} {
				if resp, body := get(t, scraped, path); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
				}
			}
		}
	}

	for _, path := range []string{"/topk?k=3&r=2", "/topk?k=5"} {
		_, got := queryWithCache(t, scraped, path)
		_, want := queryWithCache(t, control, path)
		if got, want = canonTopK(t, got), canonTopK(t, want); !bytes.Equal(got, want) {
			t.Fatalf("%s: scraped server diverged from control\nscraped: %s\ncontrol: %s", path, got, want)
		}
	}
	_, got := queryWithCache(t, scraped, "/rank?k=3")
	_, want := queryWithCache(t, control, "/rank?k=3")
	if got, want = canonRankEvals(t, got), canonRankEvals(t, want); !bytes.Equal(got, want) {
		t.Fatalf("/rank?k=3: scraped server diverged from control\nscraped: %s\ncontrol: %s", got, want)
	}
	// Approx answers carry no timings, so all but the trace id
	// byte-compares.
	gotRaw := withoutTraceID(approxBody(t, scraped, "/topk?k=3&mode=approx"))
	wantRaw := withoutTraceID(approxBody(t, control, "/topk?k=3&mode=approx"))
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatalf("approx answer diverged under scraping\nscraped: %s\ncontrol: %s", gotRaw, wantRaw)
	}
}

func approxBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"entries"`) {
		t.Fatalf("%s: not an approx body: %s", path, body)
	}
	return body
}
