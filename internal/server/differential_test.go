package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	topk "topkdedup"
)

// rawResult pulls the result subtree out of a /topk response without
// re-encoding it, so comparisons are over the exact bytes the server
// sent.
type rawResult struct {
	SnapshotSeq uint64          `json:"snapshot_seq"`
	Records     int             `json:"records"`
	Result      json.RawMessage `json:"result"`
}

// stripTimes zeroes the wall-clock phase timings and the collapse eval
// counters inside per-level stats. Everything else in a result is
// deterministic and compared byte for byte. Timings legitimately vary
// run to run; collapse evals legitimately differ between the served and
// batch pipelines since the incremental rework — the server's maintained
// collapse amortises them at ingest, so a served query reports the few
// (often zero) evals of its delta work where the batch run reports the
// full from-scratch sweep (see INCREMENTAL.md).
func stripTimes(stats []topk.LevelStats) {
	for i := range stats {
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
		stats[i].CollapseEvals = 0
	}
}

// canonTopK re-encodes served /topk result bytes with timings zeroed.
func canonTopK(t *testing.T, data []byte) []byte {
	t.Helper()
	var res topk.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode result: %v: %s", err, data)
	}
	stripTimes(res.Pruning)
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchTopKBytes runs the batch engine over the given records in one
// shot and marshals the result exactly as the server does (timings
// zeroed for comparison).
func batchTopKBytes(t *testing.T, recs []IngestRecord, k, r int) []byte {
	t.Helper()
	d := topk.NewDataset("served", "name")
	for _, rec := range recs {
		w := rec.Weight
		if w == 0 {
			w = 1
		}
		d.Append(w, rec.Truth, rec.Values...)
	}
	eng := topk.New(d, toyLevels(), toyScorer(), topk.Config{})
	res, err := eng.TopK(k, r)
	if err != nil {
		t.Fatalf("batch engine: %v", err)
	}
	stripTimes(res.Pruning)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// serveTopKBytes ingests the records through HTTP (split into the given
// batch sizes), forces a snapshot, queries /topk, and returns the raw
// result bytes.
func serveTopKBytes(t *testing.T, ts *httptest.Server, recs []IngestRecord, batches []int, k, r int) []byte {
	t.Helper()
	at := 0
	for _, sz := range batches {
		end := at + sz
		if end > len(recs) {
			end = len(recs)
		}
		if end > at {
			ingestBatch(t, ts, recs[at:end])
		}
		at = end
	}
	if at < len(recs) {
		ingestBatch(t, ts, recs[at:])
	}
	resp := postJSON(t, ts, "/refresh", struct{}{})
	resp.Body.Close()
	_, body := get(t, ts, fmt.Sprintf("/topk?k=%d&r=%d", k, r))
	var raw rawResult
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decode /topk: %v: %s", err, body)
	}
	if raw.Records != len(recs) {
		t.Fatalf("snapshot has %d records, ingested %d", raw.Records, len(recs))
	}
	return canonTopK(t, raw.Result)
}

// mismatch spins up a fresh server, replays the records as one batch,
// and reports whether the served answer diverges from the batch engine.
// Used by the shrinker.
func mismatch(t *testing.T, recs []IngestRecord, k, r int) bool {
	t.Helper()
	cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	got := serveTopKBytes(t, ts, recs, []int{len(recs)}, k, r)
	want := batchTopKBytes(t, recs, k, r)
	return string(got) != string(want)
}

// shrink greedily removes records while the mismatch persists, so the
// failure dump is close to minimal.
func shrink(t *testing.T, recs []IngestRecord, k, r int) []IngestRecord {
	t.Helper()
	cur := append([]IngestRecord(nil), recs...)
	for pass := 0; pass < 4; pass++ {
		removed := false
		for i := 0; i < len(cur) && len(cur) > 1; i++ {
			cand := append(append([]IngestRecord(nil), cur[:i]...), cur[i+1:]...)
			if mismatch(t, cand, k, r) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return cur
}

func dumpRecords(recs []IngestRecord) string {
	var b strings.Builder
	for i, r := range recs {
		fmt.Fprintf(&b, "%3d. weight=%g truth=%q values=%q\n", i, r.Weight, r.Truth, r.Values)
	}
	return b.String()
}

// TestDifferentialSnapshotVsBatch is the serving layer's correctness
// anchor: after ANY interleaving of ingest batches, the snapshot TopK
// answer must be byte-identical to running the batch engine over the
// same records in one shot. Trials are seeded; a mismatch is shrunk to
// a near-minimal record set before failing.
func TestDifferentialSnapshotVsBatch(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 10 + r.Intn(120)
		recs := make([]IngestRecord, n)
		for i := range recs {
			e := r.Intn(1 + n/4)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Truth:  fmt.Sprintf("E%03d", e),
				Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, r.Intn(3))},
			}
		}
		// Random batch interleaving: sizes 1..13, with some single-record
		// batches to stress the per-insert publication path.
		var batches []int
		for left := n; left > 0; {
			sz := 1 + r.Intn(13)
			if sz > left {
				sz = left
			}
			batches = append(batches, sz)
			left -= sz
		}
		k := 1 + r.Intn(6)
		rr := 1 + r.Intn(3)

		cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()}
		// Alternate refresh policies across trials; the final /refresh in
		// serveTopKBytes pins the queried epoch to the full record set.
		switch trial % 3 {
		case 1:
			cfg.RefreshEvery = 7
		case 2:
			cfg.RefreshEvery = -1
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		got := serveTopKBytes(t, ts, recs, batches, k, rr)
		ts.Close()
		want := batchTopKBytes(t, recs, k, rr)
		if string(got) == string(want) {
			continue
		}
		small := shrink(t, recs, k, rr)
		t.Fatalf("trial %d (seed %d, k=%d, r=%d, batches %v): served TopK != batch engine TopK\n"+
			"shrunk to %d records:\n%s\nserved:  %s\nbatch:   %s",
			trial, 1000+trial, k, rr, batches, len(small), dumpRecords(small),
			serveDump(t, small, k, rr), batchTopKBytes(t, small, k, rr))
	}
}

// serveDump re-runs the shrunk case and returns the served bytes for
// the failure message.
func serveDump(t *testing.T, recs []IngestRecord, k, r int) []byte {
	t.Helper()
	cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return serveTopKBytes(t, ts, recs, []int{len(recs)}, k, r)
}

// interleavedRun replays the records on a fresh per-batch-publishing
// server, issuing queries between the ingest batches — so the epoch
// answer cache fills and invalidates repeatedly and the incremental
// bound cache is reused across epochs — and returns the final served
// /topk bytes (after a closing /refresh) for comparison with the batch
// engine.
func interleavedRun(t *testing.T, recs []IngestRecord, batches []int, k, r int) []byte {
	t.Helper()
	cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	paths := []string{
		fmt.Sprintf("/topk?k=%d&r=%d", k, r),
		fmt.Sprintf("/rank?k=%d", k),
		"/topk?k=1",
	}
	at, qi := 0, 0
	for _, sz := range batches {
		end := at + sz
		if end > len(recs) {
			end = len(recs)
		}
		if end > at {
			ingestBatch(t, ts, recs[at:end])
		}
		at = end
		// Two identical queries per batch: the first misses (fresh epoch),
		// the second must be a memoised hit of the same epoch.
		path := paths[qi%len(paths)]
		qi++
		for rep := 0; rep < 2; rep++ {
			resp, body := get(t, ts, path)
			if resp.StatusCode != 200 {
				t.Fatalf("interleaved %s: status %d: %s", path, resp.StatusCode, body)
			}
		}
	}
	if at < len(recs) {
		ingestBatch(t, ts, recs[at:])
	}
	resp := postJSON(t, ts, "/refresh", struct{}{})
	resp.Body.Close()
	_, body := get(t, ts, fmt.Sprintf("/topk?k=%d&r=%d", k, r))
	var raw rawResult
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decode /topk: %v: %s", err, body)
	}
	return canonTopK(t, raw.Result)
}

// shrinkInterleaved greedily removes records while the interleaved
// mismatch persists, replaying with uniform batches of 3 (the original
// batch split no longer applies to a shrunk record set).
func shrinkInterleaved(t *testing.T, recs []IngestRecord, k, r int) []IngestRecord {
	t.Helper()
	miss := func(cand []IngestRecord) bool {
		var batches []int
		for left := len(cand); left > 0; left -= 3 {
			sz := 3
			if sz > left {
				sz = left
			}
			batches = append(batches, sz)
		}
		return string(interleavedRun(t, cand, batches, k, r)) != string(batchTopKBytes(t, cand, k, r))
	}
	cur := append([]IngestRecord(nil), recs...)
	for pass := 0; pass < 4; pass++ {
		removed := false
		for i := 0; i < len(cur) && len(cur) > 1; i++ {
			cand := append(append([]IngestRecord(nil), cur[:i]...), cur[i+1:]...)
			if miss(cand) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return cur
}

// TestDifferentialInterleavedQueries is the incremental-vs-scratch
// anchor under realistic traffic: random ingest/publish/query
// interleavings — every epoch queried (twice, so cache hits serve real
// traffic) before the next batch lands — must leave the final answer
// byte-identical to the batch engine. This is the strongest exercise of
// the delta collapse and the per-epoch answer cache invalidation
// working together.
func TestDifferentialInterleavedQueries(t *testing.T) {
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		n := 15 + r.Intn(90)
		recs := make([]IngestRecord, n)
		for i := range recs {
			e := r.Intn(1 + n/4)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Truth:  fmt.Sprintf("E%03d", e),
				Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, r.Intn(3))},
			}
		}
		var batches []int
		for left := n; left > 0; {
			sz := 1 + r.Intn(9)
			if sz > left {
				sz = left
			}
			batches = append(batches, sz)
			left -= sz
		}
		k := 1 + r.Intn(5)
		rr := 1 + r.Intn(2)
		got := interleavedRun(t, recs, batches, k, rr)
		want := batchTopKBytes(t, recs, k, rr)
		if string(got) == string(want) {
			continue
		}
		small := shrinkInterleaved(t, recs, k, rr)
		t.Fatalf("trial %d (seed %d, k=%d, r=%d, batches %v): interleaved served TopK != batch engine TopK\n"+
			"shrunk to %d records:\n%s\nbatch: %s",
			trial, 9000+trial, k, rr, batches, len(small), dumpRecords(small), batchTopKBytes(t, small, k, rr))
	}
}

// TestDifferentialRankVsBatch extends the differential contract to the
// rank endpoint: the served §7.1 rank answer must match the engine's
// TopKRank over the same records, and the served §7.2 answer
// (/rank?t=, pruned from the epoch's level 1) the engine's
// ThresholdedRank — collapse evals aside, like every served pruning.
func TestDifferentialRankVsBatch(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		r := rand.New(rand.NewSource(int64(5000 + trial)))
		n := 20 + r.Intn(60)
		recs := make([]IngestRecord, n)
		for i := range recs {
			e := r.Intn(12)
			recs[i] = IngestRecord{
				Truth:  fmt.Sprintf("E%02d", e),
				Values: []string{fmt.Sprintf("%c%02d.v%d", 'a'+e%6, e, r.Intn(2))},
			}
		}
		cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		ingestBatch(t, ts, recs)
		k := 2 + r.Intn(4)
		th := 1 + float64(r.Intn(6))
		_, rankBody := get(t, ts, fmt.Sprintf("/rank?k=%d", k))
		_, threshBody := get(t, ts, fmt.Sprintf("/rank?t=%g", th))
		ts.Close()

		d := topk.NewDataset("served", "name")
		for _, rec := range recs {
			d.Append(1, rec.Truth, rec.Values...)
		}
		eng := topk.New(d, toyLevels(), toyScorer(), topk.Config{})
		rank, err := eng.TopKRank(k)
		if err != nil {
			t.Fatal(err)
		}
		thresh, err := eng.ThresholdedRank(th)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			form  string
			body  []byte
			batch *topk.RankResult
		}{{fmt.Sprintf("k=%d", k), rankBody, rank}, {fmt.Sprintf("t=%g", th), threshBody, thresh}} {
			var raw struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(c.body, &raw); err != nil {
				t.Fatal(err)
			}
			got := canonRankEvals(t, raw.Result)
			stripTimes(c.batch.PrunedStats)
			want, err := json.Marshal(c.batch)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("trial %d %s: served rank != batch rank\nserved: %s\nbatch:  %s", trial, c.form, got, want)
			}
		}
	}
}
