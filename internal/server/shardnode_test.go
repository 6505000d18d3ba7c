package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	topk "topkdedup"
	"topkdedup/internal/core"
	"topkdedup/internal/records"
	"topkdedup/internal/shard"
)

// stripEvals zeroes the collapse and prune evaluation counters inside
// per-level stats. A coordinator aggregates them per shard, where
// pruning's candidate visit order (and so its early-exit points)
// legitimately differs from the single-machine sweep; every other stats
// field — BoundEvals included — is part of the byte-identity contract
// and stays.
func stripEvals(stats []topk.LevelStats) {
	for i := range stats {
		stats[i].CollapseEvals, stats[i].PruneEvals = 0, 0
	}
}

// canonResult decodes a served /topk result and re-encodes it with
// timings and eval counters zeroed.
func canonResult(t *testing.T, data []byte) string {
	t.Helper()
	var res topk.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode result: %v: %s", err, data)
	}
	stripTimes(res.Pruning)
	stripEvals(res.Pruning)
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// canonRank is canonResult for /rank results.
func canonRank(t *testing.T, data []byte) string {
	t.Helper()
	var res topk.RankResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode rank result: %v: %s", err, data)
	}
	stripTimes(res.PrunedStats)
	stripEvals(res.PrunedStats)
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// shardCluster starts n shard-role servers plus one coordinator naming
// them, all over the toy domain.
func shardCluster(t *testing.T, n int) (coord *httptest.Server) {
	t.Helper()
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, nil)
		peers[i] = ts.URL
	}
	_, coord = newTestServer(t, func(c *Config) { c.ShardPeers = peers })
	return coord
}

func queryRaw(t *testing.T, ts *httptest.Server, path string) json.RawMessage {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("GET %s: %v: %s", path, err, body)
	}
	return raw.Result
}

// TestDifferentialShardPeersVsStandalone is the multi-node differential
// anchor: a coordinator spreading queries over 1, 2, and 4 HTTP shard
// nodes must serve /topk and /rank answers byte-identical to a
// standalone server over the same records (timings and eval counters
// excluded — see stripEvals).
func TestDifferentialShardPeersVsStandalone(t *testing.T) {
	for trial, shards := range []int{1, 2, 4} {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		n := 40 + r.Intn(80)
		recs := make([]IngestRecord, n)
		for i := range recs {
			e := r.Intn(1 + n/4)
			recs[i] = IngestRecord{
				Weight: 1 + 0.001*r.Float64(),
				Truth:  fmt.Sprintf("E%03d", e),
				Values: []string{fmt.Sprintf("%c%03d.v%d", 'a'+e%9, e, r.Intn(3))},
			}
		}
		k := 1 + r.Intn(6)
		rr := 1 + r.Intn(3)

		_, alone := newTestServer(t, nil)
		ingestBatch(t, alone, recs)
		coord := shardCluster(t, shards)
		ingestBatch(t, coord, recs)

		topkPath := fmt.Sprintf("/topk?k=%d&r=%d", k, rr)
		got := canonResult(t, queryRaw(t, coord, topkPath))
		want := canonResult(t, queryRaw(t, alone, topkPath))
		if got != want {
			t.Fatalf("shards=%d k=%d r=%d: coordinator /topk != standalone /topk\ncoord: %s\nalone: %s",
				shards, k, rr, got, want)
		}
		rankPath := fmt.Sprintf("/rank?k=%d", k)
		gotR := canonRank(t, queryRaw(t, coord, rankPath))
		wantR := canonRank(t, queryRaw(t, alone, rankPath))
		if gotR != wantR {
			t.Fatalf("shards=%d k=%d: coordinator /rank != standalone /rank\ncoord: %s\nalone: %s",
				shards, k, gotR, wantR)
		}
	}
}

// TestShardedBoundEvalsEqualSingleMachine: every transport consumes the
// ranks the single-machine scan consumes and counts evaluations per
// consumed rank, so a sharded run's per-level BoundEvals (with MRank and
// LowerBound) are core.PrunedDedup's — in-process and over HTTP peers,
// with and without replication.
func TestShardedBoundEvalsEqualSingleMachine(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	d := records.New("bounds", "name")
	for e := 0; e < 60; e++ {
		for c := 1 + r.Intn(4); c > 0; c-- {
			d.Append(1+0.001*r.Float64(), fmt.Sprintf("E%03d", e), fmt.Sprintf("%c%03d.v%d", 'a'+e%9, e, r.Intn(3)))
		}
	}
	levels := toyLevels()
	sawEvals := false
	for _, shards := range []int{2, 3, 5} {
		peers := make([]string, shards)
		for i := range peers {
			_, ts := newTestServer(t, nil)
			peers[i] = ts.URL
		}
		for _, k := range []int{2, 4, 12} {
			want, err := core.PrunedDedup(d, levels, core.Options{K: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range want.Stats {
				sawEvals = sawEvals || st.BoundEvals > 0
			}
			for _, replicate := range []bool{false, true} {
				opts := shard.Options{K: k, Shards: shards, Workers: 1, Replicate: replicate, Replica: fastReplica()}
				inProc, _, err := shard.Run(d, nil, levels, opts)
				if err != nil {
					t.Fatal(err)
				}
				overHTTP, _, err := shard.RunHTTP(d, nil, levels, peers, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*core.Result{"in-process": inProc, "http": overHTTP} {
					if len(got.Stats) != len(want.Stats) {
						t.Fatalf("%s shards=%d k=%d replicate=%v: %d levels, want %d", name, shards, k, replicate, len(got.Stats), len(want.Stats))
					}
					for li, g := range got.Stats {
						w := want.Stats[li]
						if g.BoundEvals != w.BoundEvals || g.MRank != w.MRank || g.LowerBound != w.LowerBound {
							t.Fatalf("%s shards=%d k=%d replicate=%v level %d: bound (evals %d, m %d, M %v), want (evals %d, m %d, M %v)",
								name, shards, k, replicate, li+1, g.BoundEvals, g.MRank, g.LowerBound, w.BoundEvals, w.MRank, w.LowerBound)
						}
					}
				}
			}
		}
	}
	if !sawEvals {
		t.Fatal("no single-machine bound scan evaluated a pair")
	}
}

// TestShardSessionErrors exercises the shard-node endpoint edges: calls
// against a session that was never loaded must fail clean with 404, and
// malformed bodies with 400 — never a panic or a hung worker.
func TestShardSessionErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/shard/bounds", `{"session":"nope","op":"scan","count":4}`, http.StatusNotFound},
		{"/shard/prune", `{"session":"nope","op":"start","m":2}`, http.StatusNotFound},
		{"/shard/groups", `{"session":"nope"}`, http.StatusNotFound},
		{"/shard/collapse", `{"session":"nope","level":0}`, http.StatusNotFound},
		{"/shard/collapse", `{"session":"nope","level":7}`, http.StatusBadRequest},
		{"/shard/load", `{"session":""}`, http.StatusBadRequest},
		{"/shard/bounds", `not json`, http.StatusBadRequest},
		// A loaded session asked for work out of sequence or of negative
		// size: each used to panic the handler (w.levels[-1]; makeslice),
		// which the client saw as a dropped connection.
		{"/shard/load", `{"session":"s1","schema":["name"],"k":1,"records":[{"id":0,"w":2,"values":["a1"]},{"id":1,"w":1,"values":["a2"]}],"groups":[{"rep":0,"members":[0],"w":2},{"rep":1,"members":[1],"w":1}]}`, http.StatusOK},
		{"/shard/bounds", `{"session":"s1","op":"scan","count":1}`, http.StatusBadRequest},
		{"/shard/prune", `{"session":"s1","op":"start","m":1}`, http.StatusBadRequest},
		{"/shard/collapse", `{"session":"s1","level":0}`, http.StatusOK},
		{"/shard/bounds", `{"session":"s1","op":"scan","count":-1}`, http.StatusBadRequest},
		{"/shard/bounds", `{"session":"s1","op":"cpn","prefix":-1}`, http.StatusBadRequest},
		{"/shard/bounds", `{"session":"s1","op":"scan","count":1}`, http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("POST %s %s: status %d, want %d: %s", c.path, c.body, resp.StatusCode, c.status, body)
		}
	}
	// Closing an unknown session is not an error (idempotent cleanup).
	resp, err := http.Post(ts.URL+"/shard/close", "application/json",
		bytes.NewReader([]byte(`{"session":"nope"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Closed bool `json:"closed"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || cr.Closed {
		t.Fatalf("close unknown session: status %d body %s", resp.StatusCode, body)
	}
}

// TestConcurrentSoakShardedEngine is the sharded analogue of
// TestConcurrentSoak: a server answering queries through the in-process
// sharded coordinator (Engine.Shards = 4) under concurrent ingest.
// Under `go test -race` (ci.sh runs it) this proves the coordinator's
// per-level fan-out goroutines never race the epoch-snapshot design.
func TestConcurrentSoakShardedEngine(t *testing.T) {
	const (
		ingesters        = 3
		queriers         = 4
		batchesPerWorker = 10
		batchSize        = 8
		queriesPerWorker = 12
	)
	_, ts := newTestServer(t, func(c *Config) {
		c.RefreshEvery = 0
		c.Engine.Shards = 4
	})
	client := ts.Client()

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
			r := rand.New(rand.NewSource(int64(700 + g)))
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
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("ingester %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	paths := []string{"/topk?k=3&r=2", "/topk?k=5", "/rank?k=3"}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < queriesPerWorker; q++ {
				resp, err := client.Get(ts.URL + paths[(g+q)%len(paths)])
				if err != nil {
					fail("querier %d: %v", g, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("querier %d: status %d: %s", g, resp.StatusCode, body)
					return
				}
				if !json.Valid(body) {
					fail("querier %d: invalid JSON: %s", g, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
