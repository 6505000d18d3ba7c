// Tests of the approximate fast tier: strict /topk parameter
// validation (the mode=aprox regression), byte identity of mode=exact
// with the default path, the approx answer shape and X-Approx-Bound
// header, hybrid's background exact refresh (bounded by the slot pool)
// and its sketch.hybrid.* metrics, WAL rebuild identity, and the prefix
// identity across seeded domains (toy + citations) and randomized ingest
// interleavings with greedy shrinking — every served answer is the first
// k groups of a from-scratch closure over the same records.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	topk "topkdedup"
	"topkdedup/internal/experiments"
	"topkdedup/internal/records"
	"topkdedup/internal/stream"
)

func TestTopKRejectsUnknownModeAndParams(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "bob"))
	cases := []struct {
		path string
		code string
	}{
		{"/topk?mode=aprox", "bad_mode"}, // the typo that must never silently serve exact
		{"/topk?mode=EXACT", "bad_mode"},
		{"/topk?k=2&foo=1", "unknown_param"},
		{"/topk?k=2&K=3", "unknown_param"},
		{"/topk?explain=yes", "bad_param"},
	}
	for _, tc := range cases {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400: %s", tc.path, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("GET %s: bad error body %s", tc.path, body)
		}
		if er.Code != tc.code || er.Error == "" {
			t.Fatalf("GET %s: error %+v, want code %q", tc.path, er, tc.code)
		}
	}
	for _, ok := range []string{"/topk?k=2&mode=exact", "/topk?k=2&explain=0", "/topk?k=2&explain=1&r=2"} {
		if resp, body := get(t, ts, ok); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", ok, resp.StatusCode, body)
		}
	}
}

// TestTopKRejectsRAboveMax: an R past MaxR is a typed 400 in every mode,
// before any tier computes anything; MaxR itself is served, and an R
// below 1 is still echoed as sent and answered as 1.
func TestTopKRejectsRAboveMax(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "bob"))
	for _, mode := range []string{ModeExact, ModeApprox, ModeHybrid} {
		for _, r := range []int{MaxR + 1, 1000000} {
			path := fmt.Sprintf("/topk?k=2&mode=%s&r=%d", mode, r)
			resp, body := get(t, ts, path)
			var er ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != "bad_param" {
				t.Fatalf("GET %s: status %d, body %s; want 400 bad_param", path, resp.StatusCode, body)
			}
		}
	}
	for _, r := range []int{MaxR, 0} {
		path := fmt.Sprintf("/topk?k=2&r=%d", r)
		resp, body := get(t, ts, path)
		var tr TopKResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.R != r {
			t.Fatalf("GET %s: status %d, body %s; want 200 echoing r=%d", path, resp.StatusCode, body, r)
		}
	}
}

func TestModeExactByteIdentical(t *testing.T) {
	// Apart from the per-query trace id, the one legitimately fresh
	// field, the bodies must match byte for byte.
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol", "cory"))
	resp, def := get(t, ts, "/topk?k=3&r=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default /topk: %d: %s", resp.StatusCode, def)
	}
	resp, explicit := get(t, ts, "/topk?k=3&r=2&mode=exact")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mode=exact /topk: %d: %s", resp.StatusCode, explicit)
	}
	if def, explicit = withoutTraceID(def), withoutTraceID(explicit); string(def) != string(explicit) {
		t.Fatalf("mode=exact diverges from default path\ndefault: %s\nexplicit: %s", def, explicit)
	}
}

func TestApproxAnswerAndHeader(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol"))
	resp, body := get(t, ts, "/topk?mode=approx&k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx: status %d: %s", resp.StatusCode, body)
	}
	var ar ApproxTopKResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decode approx body: %v: %s", err, body)
	}
	if ar.Mode != ModeApprox || ar.K != 2 || ar.Records != 6 || ar.Exact != "" {
		t.Fatalf("approx response: %+v", ar)
	}
	if len(ar.Entries) != 2 || ar.Entries[0].Count != 3 || ar.Entries[1].Count != 2 {
		t.Fatalf("approx entries: %+v, want counts 3, 2", ar.Entries)
	}
	for _, e := range ar.Entries {
		if e.Err != 0 || e.Lower != e.Count {
			t.Fatalf("entry %+v: want a zero-width interval", e)
		}
	}
	if got := resp.Header.Get(XApproxBound); got != "0" {
		t.Fatalf("X-Approx-Bound = %q, want 0", got)
	}
	if ar.MaxErr != 0 {
		t.Fatalf("max_err %g, want 0", ar.MaxErr)
	}
}

func TestHybridRefreshesExactAnswer(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol"))
	resp, body := get(t, ts, "/topk?mode=hybrid&k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hybrid: status %d: %s", resp.StatusCode, body)
	}
	var ar ApproxTopKResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decode hybrid body: %v: %s", err, body)
	}
	if ar.Mode != ModeHybrid || ar.Exact != "refreshing" || len(ar.Entries) != 2 {
		t.Fatalf("hybrid response: %+v", ar)
	}
	// The background task must land the exact (k=2, r=1) answer in the
	// epoch cache: poll until mode=exact reports a hit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = get(t, ts, "/topk?k=2&r=1&mode=exact")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact probe: status %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("X-Cache") == cacheHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exact answer never became a cache hit after hybrid query")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A second hybrid query now reports the exact tier as cached.
	_, body = get(t, ts, "/topk?mode=hybrid&k=2")
	if err := json.Unmarshal(body, &ar); err != nil || ar.Exact != "cached" {
		t.Fatalf("second hybrid response: %s", body)
	}
	if got := srv.Metrics().CounterValue("sketch.hybrid.refreshed"); got < 1 {
		t.Fatalf("sketch.hybrid.refreshed = %d, want >= 1", got)
	}
	// Both served entries are groups of the exact answer, and on this
	// data nothing merges past level 1: two observations of zero.
	if d := srv.Metrics().Snapshot().Observations["sketch.hybrid.observed_error"]; d.Count != 2 || d.Max != 0 {
		t.Fatalf("sketch.hybrid.observed_error = %+v, want 2 observations of 0", d)
	}
	if got := srv.Metrics().CounterValue("sketch.serve.hybrid"); got != 2 {
		t.Fatalf("sketch.serve.hybrid = %d, want 2", got)
	}
}

func TestApproxSurvivesRestart(t *testing.T) {
	// A rebooted server replays the WAL through the same accumulator
	// path, so the recovered closure must serve the same entries, and
	// both must be the closure prefix of the records ingested.
	dir := t.TempDir()
	srv, ts := newTestServer(t, func(c *Config) { c.WALDir = dir })
	r := rand.New(rand.NewSource(42))
	var all []IngestRecord
	for b := 0; b < 4; b++ {
		recs := make([]IngestRecord, 8)
		for i := range recs {
			e := r.Intn(9)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Truth:  fmt.Sprintf("E%02d", e),
				Values: []string{fmt.Sprintf("%c%02d.v%d", 'a'+e%4, e, r.Intn(2))},
			}
		}
		ingestBatch(t, ts, recs)
		all = append(all, recs...)
	}
	_, before := get(t, ts, "/topk?mode=approx&k=5")
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := New(Config{
		Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer(), WALDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	ts2 := httptest.NewServer(reborn.Handler())
	defer ts2.Close()
	_, after := get(t, ts2, "/topk?mode=approx&k=5")
	var a, b ApproxTopKResponse
	if err := json.Unmarshal(before, &a); err != nil {
		t.Fatalf("decode pre-crash approx: %v: %s", err, before)
	}
	if err := json.Unmarshal(after, &b); err != nil {
		t.Fatalf("decode post-crash approx: %v: %s", err, after)
	}
	want := closurePrefix(t, []string{"name"}, toyLevels(), all, 5)
	if len(want) != 5 || !slices.Equal(a.Entries, want) {
		t.Fatalf("pre-crash entries %+v, want the closure prefix %+v", a.Entries, want)
	}
	if !slices.Equal(a.Entries, b.Entries) {
		t.Fatalf("recovered answer diverges:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestHybridRefreshHoldsSlot pins that hybrid's background exact
// computation is bounded by the slot pool. With the scorer blocked, a run
// of hybrid requests for distinct r starts the one computation a free
// slot allows and skips the rest; once the scorer is released every
// request is accounted for as skipped, refreshed or cached, and Close
// drains what is still running.
func TestHybridRefreshHoldsSlot(t *testing.T) {
	const maxInFlight, blocked, requests = 2, 20, 40
	var running, peak atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	scorer := toyScorer()
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = maxInFlight
		c.Workers = 1 // one scorer call at a time per computation
		c.Scorer = topk.PairScorerFunc(func(a, b *records.Record) float64 {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return scorer.Score(a, b)
		})
	})
	ingestBatch(t, ts, names("alice", "alice", "alicia", "alan", "bob", "bobby", "bart"))
	m := srv.Metrics()
	var cached int64
	hybrid := func(r int) {
		t.Helper()
		var ar ApproxTopKResponse
		if err := json.Unmarshal(approxBody(t, ts, fmt.Sprintf("/topk?mode=hybrid&k=2&r=%d", r)), &ar); err != nil {
			t.Fatal(err)
		}
		switch ar.Exact {
		case "cached":
			cached++
		case "refreshing":
		default:
			t.Fatalf("r=%d: exact tier state %q", r, ar.Exact)
		}
	}
	for r := 1; r <= blocked; r++ {
		hybrid(r)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no background computation reached the scorer")
	}
	// The request holds one of the two slots, so exactly one computation
	// could start: r=1's. It is still in the scorer.
	if got := m.CounterValue("sketch.hybrid.skipped"); got != blocked-1 {
		t.Fatalf("sketch.hybrid.skipped = %d with the scorer blocked, want %d", got, blocked-1)
	}
	close(release)
	for r := blocked + 1; r < requests; r++ {
		hybrid(r)
	}
	hybrid(1) // cached, or skipped while r=39's computation holds the slot
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if running.Load() != 0 || len(srv.sem) != 0 {
		t.Fatalf("after Close: %d scorer calls running, %d slots held", running.Load(), len(srv.sem))
	}
	if p := peak.Load(); p < 1 || p > maxInFlight {
		t.Fatalf("peak concurrent scorer calls %d, want 1..%d", p, maxInFlight)
	}
	skipped, refreshed := m.CounterValue("sketch.hybrid.skipped"), m.CounterValue("sketch.hybrid.refreshed")
	if refreshed < 1 || skipped+refreshed+cached != requests {
		t.Fatalf("skipped %d + refreshed %d + cached %d, want %d requests", skipped, refreshed, cached, requests)
	}
}

// TestTopKNormalisesR pins that every r < 1 is the r = 1 query: one
// computation, one cache entry, one body apart from the echoed r — on
// the exact path and for hybrid's view of the cache.
func TestTopKNormalisesR(t *testing.T) {
	_, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alice", "bob", "bob", "carol"))
	var bodies [][]byte
	for i, r := range []int{0, -7, 1} {
		resp, body := get(t, ts, fmt.Sprintf("/topk?k=2&r=%d", r))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("r=%d: status %d: %s", r, resp.StatusCode, body)
		}
		want := cacheHit
		if i == 0 {
			want = cacheMiss
		}
		if xc := resp.Header.Get("X-Cache"); xc != want {
			t.Fatalf("r=%d: X-Cache %q, want %q", r, xc, want)
		}
		var tr TopKResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.R != r {
			t.Fatalf("r=%d echoed as %d", r, tr.R)
		}
		body = withoutTraceID(body)
		bodies = append(bodies, bytes.Replace(body, []byte(fmt.Sprintf(`"r":%d,`, r)), []byte(`"r":1,`), 1))
	}
	if !bytes.Equal(bodies[0], bodies[2]) || !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatalf("bodies differ beyond the echoed r:\n%s\n%s\n%s", bodies[0], bodies[1], bodies[2])
	}
	var ar ApproxTopKResponse
	if err := json.Unmarshal(approxBody(t, ts, "/topk?mode=hybrid&k=2&r=-3"), &ar); err != nil || ar.Exact != "cached" {
		t.Fatalf("hybrid r=-3 after exact r=1: %+v (%v), want exact=cached", ar, err)
	}
}

// approxCase is one differential trial: a record stream, a batch split,
// and the k to query.
type approxCase struct {
	schema  []string
	levels  []topk.Level
	recs    []IngestRecord
	batches []int
	k       int
}

// closurePrefix replays the records through a bare accumulator and
// returns what mode=approx must serve for them: the first k groups of
// the from-scratch sufficient closure, each with its weight re-summed
// from its members' records.
func closurePrefix(t *testing.T, schema []string, levels []topk.Level, recs []IngestRecord, k int) []ApproxEntry {
	t.Helper()
	acc, err := stream.New("truth", schema, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walBatch(recs) { // omitted weights are 1, as applied
		acc.Add(rec.Weight, rec.Truth, rec.Values...)
	}
	groups := acc.Groups()
	out := make([]ApproxEntry, min(k, len(groups)))
	for i := range out {
		var sum float64
		for _, id := range groups[i].Members {
			sum += acc.Dataset().Recs[id].Weight
		}
		out[i] = ApproxEntry{Rep: groups[i].Rep, Count: sum, Lower: sum}
	}
	return out
}

// runApproxCase ingests the case's records (random batch split, approx
// queries after every publish), and returns a description of the first
// answer that is not the closure prefix, out of (weight desc, rep asc)
// order, or at odds with the exact engine answer — "" when none is.
func runApproxCase(t *testing.T, c *approxCase) string {
	t.Helper()
	srv, err := New(Config{Schema: c.schema, Levels: c.levels})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	at := 0
	for _, sz := range append(append([]int{}, c.batches...), len(c.recs)) {
		end := at + sz
		if end > len(c.recs) {
			end = len(c.recs)
		}
		if end > at {
			ingestBatch(t, ts, c.recs[at:end])
			at = end
		}
		resp, body := get(t, ts, fmt.Sprintf("/topk?mode=approx&k=%d", c.k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("approx query: status %d: %s", resp.StatusCode, body)
		}
		var ar ApproxTopKResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatalf("decode approx: %v: %s", err, body)
		}
		if want := closurePrefix(t, c.schema, c.levels, c.recs[:at], c.k); ar.Records != at || !slices.Equal(ar.Entries, want) {
			return fmt.Sprintf("after %d records: served %+v over %d records, closure prefix is %+v",
				at, ar.Entries, ar.Records, want)
		}
		for i := 1; i < len(ar.Entries); i++ {
			p, e := ar.Entries[i-1], ar.Entries[i]
			if e.Count > p.Count || (e.Count == p.Count && e.Rep <= p.Rep) {
				return fmt.Sprintf("after %d records: entries %d, %d out of (weight desc, rep asc) order: %+v %+v",
					at, i-1, i, p, e)
			}
		}
		// With a single-level schedule and no scorer the engine's top
		// groups ARE closure components, matched by membership, so the
		// served weight is also the exact answer's, to the bit.
		_, exactBody := get(t, ts, fmt.Sprintf("/topk?mode=exact&k=%d", c.k))
		var tr TopKResponse
		if err := json.Unmarshal(exactBody, &tr); err != nil {
			t.Fatalf("decode exact: %v: %s", err, exactBody)
		}
		exactOf := make(map[int]float64)
		if len(tr.Result.Answers) > 0 {
			for _, g := range tr.Result.Answers[0].Groups {
				for _, id := range g.Records {
					exactOf[id] = g.Weight
				}
			}
		}
		for _, e := range ar.Entries {
			if w, ok := exactOf[e.Rep]; ok && w != e.Count {
				return fmt.Sprintf("after %d records: rep %d served %g, exact answer says %g", at, e.Rep, e.Count, w)
			}
		}
	}
	return ""
}

// shrinkApprox greedily removes records while the violation persists.
func shrinkApprox(t *testing.T, c *approxCase) *approxCase {
	t.Helper()
	cur := *c
	cur.recs = append([]IngestRecord(nil), c.recs...)
	cur.batches = nil // single batch while shrinking
	for pass := 0; pass < 4; pass++ {
		removed := false
		for i := 0; i < len(cur.recs) && len(cur.recs) > 1; i++ {
			cand := cur
			cand.recs = append(append([]IngestRecord(nil), cur.recs[:i]...), cur.recs[i+1:]...)
			if runApproxCase(t, &cand) != "" {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return &cur
}

// TestDifferentialSketchContainment is the approximate tier's
// correctness anchor, now an identity rather than a containment: across
// seeded domains and randomized ingest interleavings, every served
// approx answer is, entry for entry and bit for bit, the first k groups
// of a from-scratch sufficient closure over the records its body names
// (Count == Lower == the closure weight, Err == 0), in (weight desc, rep
// asc) order, and agrees with the exact engine.TopK weight of the
// matching group.
func TestDifferentialSketchContainment(t *testing.T) {
	type domainGen func(t *testing.T, r *rand.Rand) *approxCase
	toyGen := func(t *testing.T, r *rand.Rand) *approxCase {
		n := 20 + r.Intn(100)
		recs := make([]IngestRecord, n)
		for i := range recs {
			e := r.Intn(1 + n/5)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Truth:  fmt.Sprintf("E%03d", e),
				Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%6, e, r.Intn(3))},
			}
		}
		return &approxCase{schema: []string{"name"}, levels: toyLevels(), recs: recs}
	}
	citations := citationRecords(t)
	citationGen := func(t *testing.T, r *rand.Rand) *approxCase {
		n := 40 + r.Intn(len(citations.recs)-40)
		return &approxCase{
			schema: citations.schema,
			levels: citations.levels,
			recs:   citations.recs[:n],
		}
	}
	trial := 0
	for _, gen := range []domainGen{toyGen, citationGen} {
		for rep := 0; rep < 4; rep++ {
			trial++
			r := rand.New(rand.NewSource(int64(7000 + trial)))
			c := gen(t, r)
			c.k = 1 + r.Intn(6)
			for left := len(c.recs); left > 0; {
				sz := 1 + r.Intn(17)
				if sz > left {
					sz = left
				}
				c.batches = append(c.batches, sz)
				left -= sz
			}
			if msg := runApproxCase(t, c); msg != "" {
				small := shrinkApprox(t, c)
				t.Fatalf("trial %d (k=%d, batches %v): %s\nshrunk to %d records:\n%s",
					trial, c.k, c.batches, msg, len(small.recs), dumpRecords(small.recs))
			}
		}
	}
}

// citationDomain is the citation-analogue dataset reshaped for ingest:
// a single-level schedule (sufficient closure only, no scorer), so the
// exact engine's answer weights equal closure weights.
type citationDomain struct {
	schema []string
	levels []topk.Level
	recs   []IngestRecord
}

func citationRecords(t *testing.T) *citationDomain {
	t.Helper()
	dd, err := experiments.CitationSetup(240, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]IngestRecord, len(dd.Data.Recs))
	for i, rec := range dd.Data.Recs {
		values := make([]string, len(dd.Data.Schema))
		for j, f := range dd.Data.Schema {
			values[j] = rec.Fields[f]
		}
		recs[i] = IngestRecord{Weight: rec.Weight, Truth: rec.Truth, Values: values}
	}
	return &citationDomain{
		schema: dd.Data.Schema,
		levels: dd.Domain.Levels[:1],
		recs:   recs,
	}
}
