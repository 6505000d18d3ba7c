package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	topk "topkdedup"
)

// counter reads one counter out of the server's metrics collector.
func counter(t *testing.T, srv *Server, name string) int64 {
	t.Helper()
	return srv.Metrics().Snapshot().Counters[name]
}

// queryWithCache issues one GET and returns the X-Cache header plus the
// raw result bytes.
func queryWithCache(t *testing.T, ts *httptest.Server, path string) (string, []byte) {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	status := resp.Header.Get("X-Cache")
	if status == "" {
		t.Fatalf("%s: missing X-Cache header", path)
	}
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decode %s: %v: %s", path, err, body)
	}
	return status, raw.Result
}

// TestTopKCacheLifecycle pins the memoisation contract end to end: the
// first /topk of an epoch is a miss that runs the pipeline, a repeat is
// a hit that runs NO pipeline phase (the core.levels counter — one
// increment per executed pruning level — must not move), returns the
// identical result bytes, and a /refresh publish invalidates the whole
// cache.
func TestTopKCacheLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alan", "bob", "bob", "bob", "carol"))

	status, first := queryWithCache(t, ts, "/topk?k=3&r=1")
	if status != cacheMiss {
		t.Fatalf("first query: X-Cache=%q, want %q", status, cacheMiss)
	}
	if got := counter(t, srv, "inc.cache.miss"); got != 1 {
		t.Fatalf("inc.cache.miss after first query: %d, want 1", got)
	}

	levelsBefore := counter(t, srv, "core.levels")
	boundBefore := counter(t, srv, "core.bound.evals")
	pruneBefore := counter(t, srv, "core.prune.evals")
	status, second := queryWithCache(t, ts, "/topk?k=3&r=1")
	if status != cacheHit {
		t.Fatalf("repeat query: X-Cache=%q, want %q", status, cacheHit)
	}
	if got := counter(t, srv, "inc.cache.hit"); got != 1 {
		t.Fatalf("inc.cache.hit after repeat: %d, want 1", got)
	}
	// The memoised answer must be served without re-running any
	// collapse/bound/prune work: every pipeline counter is frozen.
	if got := counter(t, srv, "core.levels"); got != levelsBefore {
		t.Fatalf("cache hit ran the pipeline: core.levels %d -> %d", levelsBefore, got)
	}
	if got := counter(t, srv, "core.bound.evals"); got != boundBefore {
		t.Fatalf("cache hit ran the bound phase: core.bound.evals %d -> %d", boundBefore, got)
	}
	if got := counter(t, srv, "core.prune.evals"); got != pruneBefore {
		t.Fatalf("cache hit ran the prune phase: core.prune.evals %d -> %d", pruneBefore, got)
	}
	if string(first) != string(second) {
		t.Fatalf("hit bytes differ from miss bytes:\nmiss: %s\nhit:  %s", first, second)
	}

	// Different parameters are a different key: still a miss on this epoch.
	if status, _ = queryWithCache(t, ts, "/topk?k=2&r=1"); status != cacheMiss {
		t.Fatalf("different k: X-Cache=%q, want %q", status, cacheMiss)
	}

	// Publishing a new epoch invalidates every memoised answer.
	resp := postJSON(t, ts, "/refresh", struct{}{})
	resp.Body.Close()
	if status, _ = queryWithCache(t, ts, "/topk?k=3&r=1"); status != cacheMiss {
		t.Fatalf("after refresh: X-Cache=%q, want %q", status, cacheMiss)
	}
}

// TestRankCacheLifecycle extends the memoisation contract to both /rank
// forms, and checks the two forms (and /topk) do not collide in the
// cache key space.
func TestRankCacheLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "alan", "bob", "bob", "bob", "carol"))

	for _, path := range []string{"/rank?k=3", "/rank?t=1.5", "/topk?k=3"} {
		if status, _ := queryWithCache(t, ts, path); status != cacheMiss {
			t.Fatalf("%s first query: X-Cache=%q, want %q", path, status, cacheMiss)
		}
		if status, _ := queryWithCache(t, ts, path); status != cacheHit {
			t.Fatalf("%s repeat query: X-Cache=%q, want %q", path, status, cacheHit)
		}
	}
	if hits := counter(t, srv, "inc.cache.hit"); hits != 3 {
		t.Fatalf("inc.cache.hit: %d, want 3", hits)
	}

	resp := postJSON(t, ts, "/refresh", struct{}{})
	resp.Body.Close()
	if status, _ := queryWithCache(t, ts, "/rank?k=3"); status != cacheMiss {
		t.Fatalf("rank after refresh: X-Cache=%q, want %q", status, cacheMiss)
	}
}

// TestExplainBypassesCache pins the ?explain=1 rule: explain queries
// need a fresh pipeline run for their report, so they neither read nor
// write the cache — and the cache state around them is untouched.
func TestExplainBypassesCache(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ingestBatch(t, ts, names("alice", "alice", "bob"))

	for i := 0; i < 2; i++ {
		if status, _ := queryWithCache(t, ts, "/topk?k=2&explain=1"); status != cacheBypass {
			t.Fatalf("explain query %d: X-Cache=%q, want %q", i, status, cacheBypass)
		}
	}
	if got := counter(t, srv, "inc.cache.bypass"); got != 2 {
		t.Fatalf("inc.cache.bypass: %d, want 2", got)
	}
	// The explain runs did not seed the cache: a plain query misses, then hits.
	if status, _ := queryWithCache(t, ts, "/topk?k=2"); status != cacheMiss {
		t.Fatalf("plain query after explain: want miss, got %q", status)
	}
	if status, _ := queryWithCache(t, ts, "/topk?k=2"); status != cacheHit {
		t.Fatalf("plain repeat after explain: want hit, got %q", status)
	}
}

// TestAnswerCacheSingleflight exercises an epoch memo's state machine
// directly: a second identical lookup that arrives while the first is
// still computing coalesces onto the same entry; once the owner
// finishes, later lookups hit; an errored computation is evicted rather
// than memoised; and inserting into a full memo clears it first, so it
// never holds more than memoLimit entries.
func TestAnswerCacheSingleflight(t *testing.T) {
	var c answerCache
	key := answerKey{kind: 't', k: 3, r: 1}

	status, owner := c.begin(key)
	if status != cacheMiss {
		t.Fatalf("first begin: %q, want %q", status, cacheMiss)
	}
	status, ent := c.begin(key)
	if status != cacheCoalesced || ent != owner {
		t.Fatalf("in-flight begin: %q (same entry %v), want coalesced on the owner's entry", status, ent == owner)
	}

	// A coalesced waiter blocks on done and observes the owner's result
	// after finish — the channel close is the publication barrier.
	res := &topk.Result{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ent.done
		if ent.topk != res || ent.err != nil {
			t.Errorf("waiter observed %v/%v, want the owner's result", ent.topk, ent.err)
		}
	}()
	owner.topk = res
	c.finish(key, owner)
	wg.Wait()

	if status, ent = c.begin(key); status != cacheHit || ent.topk != res {
		t.Fatalf("post-finish begin: %q, want hit with the memoised result", status)
	}

	// Errors are not memoised: finish evicts, the next lookup recomputes.
	failing := answerKey{kind: 'p', k: 3}
	_, owner = c.begin(failing)
	owner.err = fmt.Errorf("boom")
	c.finish(failing, owner)
	if status, owner = c.begin(failing); status != cacheMiss {
		t.Fatalf("begin after errored finish: %q, want %q (errors must not be cached)", status, cacheMiss)
	}
	c.finish(failing, owner)
	if c.size() != 2 {
		t.Fatalf("memo size: %d, want 2 (the hit and the recomputed key)", c.size())
	}

	// Fill the memo to its limit; the next new key clears it first.
	for i := 0; c.size() < memoLimit; i++ {
		k := answerKey{kind: 'r', t: float64(i + 1)}
		_, owner = c.begin(k)
		c.finish(k, owner)
	}
	if status, _ = c.begin(key); status != cacheHit {
		t.Fatalf("full memo: %q for a kept key, want %q", status, cacheHit)
	}
	overflow := answerKey{kind: 'k', k: 99}
	if status, owner = c.begin(overflow); status != cacheMiss || c.size() != 1 {
		t.Fatalf("insert into a full memo: %q with %d entries, want a miss alone in a cleared memo", status, c.size())
	}
	c.finish(overflow, owner)
	if status, _ = c.begin(key); status != cacheMiss {
		t.Fatalf("after the clear: %q for the old key, want %q", status, cacheMiss)
	}
}

// TestAnswerCacheHitNoAllocs is the alloc-regression smoke for the hot
// serving path: resolving a memoised answer must not allocate. ci.sh
// runs it in the short-mode smoke suite.
func TestAnswerCacheHitNoAllocs(t *testing.T) {
	var c answerCache
	key := answerKey{kind: 't', k: 10, r: 2}
	_, owner := c.begin(key)
	owner.topk = &topk.Result{}
	c.finish(key, owner)
	allocs := testing.AllocsPerRun(1000, func() {
		status, ent := c.begin(key)
		if status != cacheHit || ent.topk == nil {
			t.Fatal("expected a hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit lookup allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestMemoBoundedUnderSweep: a client sweeping k on /topk or /rank, or t
// on /rank, against a read-only server — one epoch that never moves on —
// asks a new key every request. The epoch memo never holds more than
// memoLimit entries, and a hot key asked between the sweep's requests
// keeps its answer byte for byte (phase times aside) whether it is a hit
// or a recompute after a clear.
func TestMemoBoundedUnderSweep(t *testing.T) {
	cases := []struct {
		name, format string
		canon        func(*testing.T, []byte) []byte
	}{
		{"topk_k", "/topk?k=%d", canonTopK},
		{"rank_k", "/rank?k=%d", canonRankEvals},
		{"rank_t", "/rank?t=1.%03d", canonRankEvals},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, nil)
			ingestBatch(t, ts, readPathRecords(5, 120))
			hot := fmt.Sprintf(tc.format, 1)
			_, first := queryWithCache(t, ts, hot)
			want := tc.canon(t, first)
			for i := 2; i <= 3*memoLimit; i++ {
				queryWithCache(t, ts, fmt.Sprintf(tc.format, i))
				if n, _ := srv.Metrics().GaugeValue("inc.cache.entries"); n > memoLimit {
					t.Fatalf("after %s: inc.cache.entries = %v, want <= %d", fmt.Sprintf(tc.format, i), n, memoLimit)
				}
				if _, got := queryWithCache(t, ts, hot); !bytes.Equal(tc.canon(t, got), want) {
					t.Fatalf("after %d sweep requests %s changed:\n got %s\nwant %s", i-1, hot, tc.canon(t, got), want)
				}
			}
		})
	}
}
