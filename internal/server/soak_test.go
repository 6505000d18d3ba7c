package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"topkdedup/internal/obs"
)

// TestConcurrentSoak is the end-to-end race exercise the serving design
// is accountable to: 4 ingest goroutines, 6 query goroutines, and 4
// metrics scrapers (2 Prometheus, 2 JSON) hammer one topkd handler
// stack through real HTTP while snapshots publish continuously and
// hybrid queries refresh exact answers in the background. Run under
// `go test -race` (ci.sh does), it proves
//
//   - zero data races between ingest, publication, queries, scrapes,
//     and hybrid refreshes,
//   - every response is well-formed (JSON, or a parseable Prometheus
//     exposition) with a sane status,
//   - epochs only ever move forward from a query's point of view, and
//   - every approx/hybrid answer is the closure prefix of the records
//     its body names.
func TestConcurrentSoak(t *testing.T) {
	const (
		ingesters        = 4
		queriers         = 6
		promScrapers     = 2
		jsonScrapers     = 2
		batchesPerWorker = 25
		batchSize        = 8
		queriesPerWorker = 40
		scrapesPerWorker = 15
	)
	srv, ts := newTestServer(t, func(c *Config) {
		// A worker pool on any host, so the pruning's fan-out goroutines
		// run beside ingest and publication even where NumCPU is 1.
		c.Workers = 4
	})
	client := ts.Client()

	// What the final check replays: every acknowledged batch under the
	// write-side total its ack reported (the order the server applied
	// them in), and every approx/hybrid body received.
	var mu sync.Mutex
	applied := map[int][]IngestRecord{}
	var approxAnswers []ApproxTopKResponse

	var wg sync.WaitGroup
	errCh := make(chan error, ingesters+queriers)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for b := 0; b < batchesPerWorker; b++ {
				recs := make([]IngestRecord, batchSize)
				for i := range recs {
					e := r.Intn(30)
					recs[i] = IngestRecord{
						Weight: 1 + 0.001*r.Float64(),
						Truth:  fmt.Sprintf("E%02d", e),
						Values: []string{fmt.Sprintf("%c%02d.v%d", 'a'+e%5, e, r.Intn(2))},
					}
				}
				data, _ := json.Marshal(IngestRequest{Records: recs})
				resp, err := client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(data))
				if err != nil {
					fail("ingester %d: %v", g, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("ingester %d: status %d: %s", g, resp.StatusCode, body)
					return
				}
				var ir IngestResponse
				if err := json.Unmarshal(body, &ir); err != nil {
					fail("ingester %d: invalid JSON: %s", g, body)
					return
				}
				if resp.StatusCode == http.StatusOK {
					mu.Lock()
					applied[ir.Records] = recs
					mu.Unlock()
				}
			}
		}(g)
	}

	paths := []string{
		"/topk?k=3&r=2", "/topk?k=5", "/rank?k=3", "/rank?t=2.5", "/healthz", "/metrics",
		"/topk?k=3&mode=approx", "/topk?k=4&mode=hybrid", "/slo",
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + g)))
			var lastSeq uint64
			for q := 0; q < queriesPerWorker; q++ {
				path := paths[r.Intn(len(paths))]
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					fail("querier %d: %v", g, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("querier %d: %s: status %d: %s", g, path, resp.StatusCode, body)
					return
				}
				if !json.Valid(body) {
					fail("querier %d: %s: invalid JSON: %s", g, path, body)
					return
				}
				// Every successful query answer must carry a well-formed
				// answer-cache verdict, whatever the publish/query race
				// resolved to. Approx/hybrid answers come from the epoch's
				// group list, outside the answer cache — no X-Cache,
				// different body.
				approx := strings.Contains(path, "mode=")
				if resp.StatusCode == http.StatusOK && approx {
					var ar ApproxTopKResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						fail("querier %d: %s: decode: %v", g, path, err)
						return
					}
					mu.Lock()
					approxAnswers = append(approxAnswers, ar)
					mu.Unlock()
				}
				if resp.StatusCode == http.StatusOK && !approx &&
					(strings.HasPrefix(path, "/topk") || strings.HasPrefix(path, "/rank")) {
					switch xc := resp.Header.Get("X-Cache"); xc {
					case cacheHit, cacheMiss, cacheCoalesced, cacheBypass:
					default:
						fail("querier %d: %s: bad X-Cache header %q", g, path, xc)
						return
					}
				}
				if resp.StatusCode == http.StatusOK && !approx && strings.HasPrefix(path, "/topk") {
					var out TopKResponse
					if err := json.Unmarshal(body, &out); err != nil {
						fail("querier %d: decode: %v", g, err)
						return
					}
					if out.Result == nil {
						fail("querier %d: nil result", g)
						return
					}
					if out.SnapshotSeq < lastSeq {
						fail("querier %d: epoch went backwards: %d -> %d", g, lastSeq, out.SnapshotSeq)
						return
					}
					lastSeq = out.SnapshotSeq
					for _, ans := range out.Result.Answers {
						for gi := 1; gi < len(ans.Groups); gi++ {
							if ans.Groups[gi-1].Weight < ans.Groups[gi].Weight {
								fail("querier %d: answer groups out of order", g)
								return
							}
						}
					}
				}
			}
		}(g)
	}

	// Prometheus scrapers: every exposition served mid-soak must parse
	// cleanly (declared types, monotone buckets, consistent _sum/_count).
	for g := 0; g < promScrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < scrapesPerWorker; i++ {
				resp, err := client.Get(ts.URL + "/metrics?format=prom")
				if err != nil {
					fail("prom scraper %d: %v", g, err)
					return
				}
				families, err := obs.CheckExposition(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("prom scraper %d: status %d", g, resp.StatusCode)
					return
				}
				if err != nil {
					fail("prom scraper %d: exposition does not parse: %v", g, err)
					return
				}
				if len(families) == 0 {
					fail("prom scraper %d: empty exposition", g)
					return
				}
			}
		}(g)
	}

	// JSON scrapers exercise the pre-existing format concurrently.
	for g := 0; g < jsonScrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < scrapesPerWorker; i++ {
				for _, path := range []string{"/metrics?format=json", "/slo"} {
					resp, err := client.Get(ts.URL + path)
					if err != nil {
						fail("json scraper %d: %v", g, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail("json scraper %d: %s: status %d: %s", g, path, resp.StatusCode, body)
						return
					}
					if !json.Valid(body) {
						fail("json scraper %d: %s: invalid JSON: %s", g, path, body)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The write side must have absorbed every batch.
	want := ingesters * batchesPerWorker * batchSize
	if srv.Records() != want {
		t.Fatalf("records after soak: %d, want %d", srv.Records(), want)
	}
	// And the final published state answers consistently.
	ingestBatch(t, ts, names("final"))
	_, body := get(t, ts, "/topk?k=3")
	var out TopKResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Records != want+1 {
		t.Fatalf("final snapshot has %d records, want %d", out.Records, want+1)
	}

	// Drain the background refreshes, then the accuracy verdict: every
	// approx/hybrid body is the closure prefix of the records it names.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []IngestRecord
	for len(recs) < want {
		batch, ok := applied[len(recs)+batchSize]
		if !ok {
			t.Fatalf("no acknowledged batch ends at record %d", len(recs)+batchSize)
		}
		recs = append(recs, batch...)
	}
	if len(approxAnswers) == 0 {
		t.Fatal("soak received no approx answers")
	}
	for _, ar := range approxAnswers {
		if ar.Records%batchSize != 0 || ar.Records > want {
			t.Fatalf("approx answer names %d records, not a batch boundary", ar.Records)
		}
		if want := closurePrefix(t, []string{"name"}, toyLevels(), recs[:ar.Records], ar.K); !slices.Equal(ar.Entries, want) {
			t.Fatalf("mode=%s over %d records served %+v, closure prefix is %+v", ar.Mode, ar.Records, ar.Entries, want)
		}
	}
}
