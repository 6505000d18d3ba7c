package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	topk "topkdedup"
)

// readPathRecords is a seeded toy record set with enough entities per
// first-letter canopy that K = 1, 10 and 50 prune differently.
func readPathRecords(seed int64, n int) []IngestRecord {
	r := rand.New(rand.NewSource(seed))
	recs := make([]IngestRecord, n)
	for i := range recs {
		e := r.Intn(1 + n/4)
		recs[i] = IngestRecord{
			Weight: 1 + 0.001*r.Float64(),
			Truth:  fmt.Sprintf("E%03d", e),
			Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, r.Intn(3))},
		}
	}
	return recs
}

// batchRankBytes is batchTopKBytes for /rank?k=: the batch engine's
// TopKRank over the records, marshalled as the server does.
func batchRankBytes(t *testing.T, recs []IngestRecord, k int) []byte {
	t.Helper()
	d := topk.NewDataset("served", "name")
	for _, rec := range recs {
		d.Append(rec.Weight, rec.Truth, rec.Values...)
	}
	res, err := topk.New(d, toyLevels(), toyScorer(), topk.Config{}).TopKRank(k)
	if err != nil {
		t.Fatalf("batch engine: %v", err)
	}
	stripTimes(res.PrunedStats)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// canonRankEvals re-encodes served /rank result bytes like canonTopK:
// bound and prune eval counts kept, unlike canonRank.
func canonRankEvals(t *testing.T, data []byte) []byte {
	t.Helper()
	var res topk.RankResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode rank result: %v: %s", err, data)
	}
	stripTimes(res.PrunedStats)
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadPathPrunesOncePerEpochK drives the exact read path the way
// serve_read does — /topk?k∈{1,10,50}&r∈{1,3} and /rank?k=10 from
// several clients at once — against one epoch while /ingest publishes
// the next, and pins what the per-(epoch, K) memo promises:
//
//   - every answer equals the batch engine's TopK / TopKRank over the
//     records of the epoch it names, byte for byte with bound and prune
//     eval counts included (phase times zeroed; collapse evals too, which
//     differ between any served and batch run — see stripTimes);
//   - the core.levels counter moved by exactly one pruning per (epoch, K)
//     that was asked, however many (K, R) shapes and clients asked it, and
//     stream.topk.seconds has one sample per such pruning;
//   - ?explain=1 still computes afresh: X-Cache bypass, the full per-level
//     report, core.levels moved by that one run, answer unchanged.
//
// ci.sh runs it under -race, which is what checks the sharing.
func TestReadPathPrunesOncePerEpochK(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	recs := readPathRecords(7, 260)
	const first = 200
	ingestBatch(t, ts, recs[:first])

	type shape struct {
		path string
		k, r int // r == 0: /rank
	}
	shapes := []shape{{"/rank?k=10", 10, 0}}
	for _, k := range []int{1, 10, 50} {
		for _, r := range []int{1, 3} {
			shapes = append(shapes, shape{fmt.Sprintf("/topk?k=%d&r=%d", k, r), k, r})
		}
	}
	want := func(sh shape, records int) []byte {
		if sh.r == 0 {
			return batchRankBytes(t, recs[:records], sh.k)
		}
		return batchTopKBytes(t, recs[:records], sh.k, sh.r)
	}

	type epochK struct {
		records, k int
	}
	var mu sync.Mutex
	levelsOf := map[epochK]int{} // pruning levels of every (epoch, K) answered
	check := func(sh shape) {
		resp, body := get(t, ts, sh.path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", sh.path, resp.StatusCode, body)
			return
		}
		var raw rawResult
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Errorf("decode %s: %v", sh.path, err)
			return
		}
		var got []byte
		var levels int
		if sh.r == 0 {
			got = canonRankEvals(t, raw.Result)
			var res topk.RankResult
			json.Unmarshal(got, &res)
			levels = len(res.PrunedStats)
		} else {
			got = canonTopK(t, raw.Result)
			var res topk.Result
			json.Unmarshal(got, &res)
			levels = len(res.Pruning)
		}
		if w := want(sh, raw.Records); !bytes.Equal(got, w) {
			t.Errorf("%s on %d records: served != batch\nserved: %s\nbatch:  %s", sh.path, raw.Records, got, w)
		}
		mu.Lock()
		levelsOf[epochK{raw.Records, sh.k}] = levels
		mu.Unlock()
	}

	// Round one has every client on the first epoch at once; the ingest
	// goes out when the first client is through it and publishes under
	// the later rounds.
	const clients, rounds = 6, 3
	var wg sync.WaitGroup
	var once sync.Once
	firstRound := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range shapes {
					check(shapes[(i+c)%len(shapes)])
				}
				once.Do(func() { close(firstRound) })
			}
		}(c)
	}
	<-firstRound
	ingestBatch(t, ts, recs[first:])
	wg.Wait()
	// Whatever the race left unasked on the second epoch, ask now.
	for _, sh := range shapes {
		check(sh)
	}
	if t.Failed() {
		return
	}
	var wantLevels int64
	for _, n := range levelsOf {
		wantLevels += int64(n)
	}
	if len(levelsOf) != 6 {
		t.Fatalf("answered %d (epoch, K) pairs, want 2 epochs x 3 K: %v", len(levelsOf), levelsOf)
	}
	if got := counter(t, srv, "core.levels"); got != wantLevels {
		t.Errorf("core.levels = %d, want %d: one pruning per (epoch, K) over %v", got, wantLevels, levelsOf)
	}
	if got := srv.Metrics().Snapshot().Observations["stream.topk.seconds"].Count; got != int64(len(levelsOf)) {
		t.Errorf("stream.topk.seconds has %d samples, want one per (epoch, K): %d", got, len(levelsOf))
	}

	// ?explain=1: a fresh run with the whole report, the same answer.
	before := counter(t, srv, "core.levels")
	resp, body := get(t, ts, "/topk?k=10&r=3&explain=1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != cacheBypass {
		t.Fatalf("explain: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	var tr TopKResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	ex := tr.Result.Explain
	if ex == nil || len(ex.Levels) != len(tr.Result.Pruning) || ex.Final == nil {
		t.Fatalf("explain=1 report is not a full fresh tree: %+v", ex)
	}
	for i, lv := range ex.Levels {
		st := tr.Result.Pruning[i]
		if lv.CollapseEvals != st.CollapseEvals || lv.BoundEvals != st.BoundEvals || lv.PruneEvals != st.PruneEvals || lv.GroupsAfter != st.NGroups {
			t.Errorf("explain level %d disagrees with the answer's stats: %+v vs %+v", i+1, lv, st)
		}
	}
	if moved := counter(t, srv, "core.levels") - before; moved != int64(len(tr.Result.Pruning)) {
		t.Errorf("explain=1 moved core.levels by %d, want %d (one fresh pruning)", moved, len(tr.Result.Pruning))
	}
	tr.Result.Explain = nil
	stripTimes(tr.Result.Pruning)
	got, _ := json.Marshal(tr.Result)
	if w := batchTopKBytes(t, recs, 10, 3); !bytes.Equal(got, w) {
		t.Errorf("explain=1 answer != batch\nserved: %s\nbatch:  %s", got, w)
	}
}

// TestReadPathErrorIsRetried: a request whose context is already
// cancelled when its pruning would start gets an error that is kept
// nowhere — neither as the epoch memo's pruning nor as its answer — so
// the next request runs the pruning as a plain miss and gets the answer
// a control server gives.
func TestReadPathErrorIsRetried(t *testing.T) {
	// No request timeout: http.TimeoutHandler would answer the cancelled
	// request itself and leave the handler running behind the test's back.
	srv, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = -1 })
	_, control := newTestServer(t, nil)
	recs := readPathRecords(11, 80)
	ingestBatch(t, ts, recs)
	ingestBatch(t, control, recs)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Distinct Ks: the second path must not find the first one's pruning
	// memoised. /rank?t= memoises only its answer.
	for _, path := range []string{"/topk?k=3&r=2", "/rank?k=5", "/rank?t=2"} {
		before := counter(t, srv, "core.levels")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Fatalf("%s with a cancelled context: status %d body %s, want 500 naming the cancellation", path, rec.Code, rec.Body)
		}
		if moved := counter(t, srv, "core.levels") - before; moved != 0 {
			t.Errorf("%s with a cancelled context ran %d pruning levels, want 0", path, moved)
		}
		status, got := queryWithCache(t, ts, path)
		if status != cacheMiss {
			t.Fatalf("%s after the failure: X-Cache %q, want %q (errors are not kept)", path, status, cacheMiss)
		}
		_, want := queryWithCache(t, control, path)
		canon := canonTopK
		if strings.HasPrefix(path, "/rank") {
			canon = canonRankEvals
		}
		if g, w := canon(t, got), canon(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s retried answer != control\nretried: %s\ncontrol: %s", path, g, w)
		}
	}
}
