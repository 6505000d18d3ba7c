package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topkdedup/internal/server"
	"topkdedup/internal/wal"
)

// clients is the closed-loop client count: callers of topkd wait for
// their reply, and two of them is the least that lets concurrent writers
// (or a reader beside a writer) contend for the server's state.
const clients = 2

type opKind uint8

const (
	opIngest opKind = iota
	opTopK
	opRank
	opApprox
	opHybrid
)

// op is one request of a serve workload's fixed sequence.
type op struct {
	kind opKind
	k, r int
	recs []server.IngestRecord // opIngest
	body []byte                // opIngest: the JSON request body
	path string                // queries: URL path and query
}

func ingestOp(recs []server.IngestRecord) op {
	body, err := json.Marshal(server.IngestRequest{Records: recs})
	if err != nil {
		panic(err) // strings and floats always marshal
	}
	return op{kind: opIngest, recs: recs, body: body}
}

func topkOp(k, r int) op {
	return op{kind: opTopK, k: k, r: r, path: fmt.Sprintf("/topk?k=%d&r=%d", k, r)}
}

func rankOp(k int) op {
	return op{kind: opRank, k: k, path: fmt.Sprintf("/rank?k=%d", k)}
}

func sketchOp(kind opKind, k int) op {
	mode := server.ModeApprox
	if kind == opHybrid {
		mode = server.ModeHybrid
	}
	return op{kind: kind, k: k, r: 1, path: fmt.Sprintf("/topk?k=%d&mode=%s", k, mode)}
}

// serveWorkload describes one of the three serve workloads: its data,
// how much of it is seeded, its op sequence, and the op class whose
// latency is the workload's op_p50_ms / op_p95_ms.
type serveWorkload struct {
	name    string
	primary string
	seeded  func(sz sizes) int
	records func(sz sizes) int // records the op sequence needs in all
	gen     func(target int, seed int64) (*dataset, error)
	ops     func(sz sizes, ds *dataset, rng *rand.Rand) []op
	restart bool // end every episode with a restart from the WAL
	sketch  bool // the sequence reads the sketch tier; check its intervals
}

// mixedRecords is what serve_mixed needs: a tenth of its ops ingest.
func mixedRecords(sz sizes) int { return sz.mixedSeeded + sz.mixedOps/10*readBatch }

// The op mixes are fixed multisets that the seed only shuffles: drawing
// each op at random would make the number of ingests, and with it the
// number of epochs and cache misses, vary by a tenth from seed to seed.

var serveWorkloads = map[string]*serveWorkload{
	"serve_read": {
		name: "serve_read", primary: "exact_miss",
		seeded:  func(sz sizes) int { return sz.readSeeded },
		records: func(sz sizes) int { return sz.readSeeded + sz.readCycles*readBatch },
		gen: func(target int, seed int64) (*dataset, error) {
			return genCitations(target, seed, true)
		},
		ops: func(sz sizes, ds *dataset, rng *rand.Rand) []op {
			shapes := []op{rankOp(10)}
			for _, k := range []int{1, 10, 50} {
				shapes = append(shapes, topkOp(k, 1), topkOp(k, 3))
			}
			var ops []op
			at := sz.readSeeded
			for c := 0; c < sz.readCycles; c++ {
				ops = append(ops, ingestOp(ds.ingestRecords(at, at+readBatch)))
				at += readBatch
				cycle := make([]op, 0, readRepeats*len(shapes))
				for i := 0; i < readRepeats; i++ {
					cycle = append(cycle, shapes...)
				}
				rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
				ops = append(ops, cycle...)
			}
			return ops
		},
	},
	"serve_ingest": {
		name: "serve_ingest", primary: "ingest", restart: true,
		seeded:  func(sz sizes) int { return sz.ingestSeeded },
		records: func(sz sizes) int { return sz.ingestSeeded + sz.ingestBatches*ingestBatch },
		gen: func(target int, seed int64) (*dataset, error) {
			return genCitations(target, seed, false)
		},
		ops: func(sz sizes, ds *dataset, _ *rand.Rand) []op {
			var ops []op
			at := sz.ingestSeeded
			for b := 0; b < sz.ingestBatches; b++ {
				ops = append(ops, ingestOp(ds.ingestRecords(at, at+ingestBatch)))
				at += ingestBatch
			}
			return ops
		},
	},
	"serve_mixed": {
		name: "serve_mixed", primary: "ingest", sketch: true,
		seeded:  func(sz sizes) int { return sz.mixedSeeded },
		records: mixedRecords,
		gen:     genStudents,
		ops: func(sz sizes, ds *dataset, rng *rand.Rand) []op {
			ks := []int{1, 10, 50}
			n := sz.mixedOps
			ops := make([]op, 0, n)
			at := sz.mixedSeeded
			for i := 0; i < n/10; i++ {
				ops = append(ops, ingestOp(ds.ingestRecords(at, at+readBatch)))
				at += readBatch
			}
			for i := 0; i < n*55/100; i++ {
				ops = append(ops, sketchOp(opApprox, ks[i%len(ks)]))
			}
			for i := 0; i < n*30/100; i++ {
				ops = append(ops, sketchOp(opHybrid, ks[i%len(ks)]))
			}
			for i := 0; len(ops) < n; i++ {
				ops = append(ops, topkOp(ks[i%len(ks)], 1))
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			return ops
		},
	},
}

// ack is one acknowledged /ingest: the op it answers and the server's
// record total after applying it, which orders the batches as applied.
type ack struct {
	op    int
	total int
}

// sketchAnswer is one served approx/hybrid answer, kept for the interval
// check against the mirror accumulator.
type sketchAnswer struct {
	records int // records in the epoch it was read from
	entries []server.ApproxEntry
}

// clientLog is what one client goroutine observed.
type clientLog struct {
	lat      map[string][]float64 // class → latencies in ms
	acks     []ack
	answers  []sketchAnswer
	maxErr   []float64 // X-Approx-Bound of every approx/hybrid reply
	failures []string
	failed   int
}

// episode is the outcome of one set-up plus one measured sequence.
type episode struct {
	setupS, genS, trainS, seedS float64
	wallS, cpuS, allocMB        float64
	heapMB                      float64
	ops, failed                 int
	lat                         map[string][]float64
	maxErr                      []float64
	recoveryS, recall           float64
	evalDelta                   float64 // check.go's sameButEvals
	counters                    map[string]int64
	failures                    []string
	// The host probe around the episode: median kernel time, wall and
	// CPU per processor (probe.go).
	probeWallS, probeCPUS float64
}

// serverCounters are the program's own counters read after an episode.
var serverCounters = []string{
	"wal.fsyncs", "wal.append.batches", "wal.append.bytes", "wal.append.records",
	"inc.delta.rebuilt_groups", "inc.delta.reused_groups",
	"inc.bound.reused_ranks", "inc.bound.scanned_ranks",
	"inc.cache.hit", "inc.cache.miss", "inc.cache.coalesced", "inc.cache.bypass",
	"server.http.throttled", "sketch.evictions", "sketch.hybrid.refreshed",
}

// serverConfig is topkd's default configuration plus a WAL directory
// (main.go's walSync says with which fsync policy).
func serverConfig(ds *dataset, dir string, policy wal.SyncPolicy) server.Config {
	return server.Config{
		Name:       ds.d.Name,
		Schema:     ds.d.Schema,
		Levels:     ds.levels,
		Scorer:     ds.scorer,
		WALDir:     dir,
		WALOptions: wal.Options{Sync: policy},
	}
}

// serveSetup is the timed set-up of a serve episode: generate, train,
// server.New on a fresh WAL directory, Seed.
func (w *serveWorkload) setup(sz sizes, seed int64, workdir string, policy wal.SyncPolicy, e *episode) (ds *dataset, srv *server.Server, dir string, err error) {
	start := time.Now()
	need := w.records(sz)
	// The generators hit their target only roughly; ask for a little more.
	ds, err = w.gen(need+need/50+50, seed)
	if err != nil {
		return nil, nil, "", err
	}
	if ds.d.Len() < need {
		return nil, nil, "", fmt.Errorf("%s: generated %d records, sequence needs %d", w.name, ds.d.Len(), need)
	}
	dir, err = os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, nil, "", err
	}
	srv, err = server.New(serverConfig(ds, dir, policy))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	seedStart := time.Now()
	if _, err = srv.Seed(ds.prefix(w.seeded(sz))); err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	e.seedS = time.Since(seedStart).Seconds()
	e.genS, e.trainS = ds.genS, ds.trainS
	e.setupS = time.Since(start).Seconds()
	return ds, srv, dir, nil
}

// runEpisode sets a server up, drives the op sequence through it over
// loopback HTTP from two closed-loop clients, checks the answers and, for
// serve_ingest, restarts from the WAL.
func (w *serveWorkload) runEpisode(sz sizes, seed int64, workdir string, policy wal.SyncPolicy) (*episode, error) {
	e := &episode{lat: map[string][]float64{}, counters: map[string]int64{}}
	ds, srv, dir, err := w.setup(sz, seed, workdir, policy, e)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ops := w.ops(sz, ds, rand.New(rand.NewSource(seed)))
	ts := httptest.NewServer(srv.Handler())

	logs := make([]clientLog, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuSeconds(), time.Now()
	for c := range logs {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			log.lat = map[string][]float64{}
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				log.do(ts, i, &ops[i])
			}
		}(&logs[c])
	}
	wg.Wait()
	e.wallS, e.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	e.ops = len(ops)

	var acks []ack
	var answers []sketchAnswer
	for i := range logs {
		l := &logs[i]
		for class, ms := range l.lat {
			e.lat[class] = append(e.lat[class], ms...)
		}
		acks = append(acks, l.acks...)
		answers = append(answers, l.answers...)
		e.maxErr = append(e.maxErr, l.maxErr...)
		e.failed += l.failed
		e.failures = append(e.failures, l.failures...)
	}

	// Quiesced: nothing is in flight but hybrid background computes,
	// which Close drains below.
	sort.Slice(acks, func(i, j int) bool { return acks[i].total < acks[j].total })
	applied := make([][]server.IngestRecord, len(acks))
	for i, a := range acks {
		applied[i] = ops[a.op].recs
	}
	chk := &checker{ds: ds, seeded: w.seeded(sz), applied: applied}
	served, err := fetchAnswers(ts)
	if err != nil {
		e.failures = append(e.failures, err.Error())
	} else {
		delta, fails := chk.exact(served)
		e.evalDelta = float64(delta)
		e.failures = append(e.failures, fails...)
	}
	if w.sketch {
		recall, fails := chk.sketch(ts, answers)
		e.recall = recall
		e.failures = append(e.failures, fails...)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		e.failures = append(e.failures, "close: "+err.Error())
	}
	for _, name := range serverCounters {
		e.counters[name] = srv.Metrics().CounterValue(name)
	}
	e.heapMB = liveHeapMB()
	runtime.KeepAlive(srv)

	if w.restart {
		fails := w.recover(e, ds, dir, policy, chk, served)
		e.failures = append(e.failures, fails...)
	}
	return e, nil
}

// recover reopens the WAL directory the way a restarted topkd does and
// times it up to the first answered /topk; the rebooted server must
// report every acknowledged record recovered and answer byte for byte
// what the server answered before shutdown.
func (w *serveWorkload) recover(e *episode, ds *dataset, dir string, policy wal.SyncPolicy, chk *checker, before *servedAnswers) []string {
	start := time.Now()
	srv, err := server.New(serverConfig(ds, dir, policy))
	if err != nil {
		return []string{"restart: " + err.Error()}
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, _, err := get(ts, "/topk?k=10&r=3"); err != nil {
		return []string{"restart: " + err.Error()}
	}
	e.recoveryS = time.Since(start).Seconds()
	var fails []string
	if want := chk.records(); srv.Recovered() != want {
		fails = append(fails, fmt.Sprintf("restart recovered %d records, %d were acknowledged", srv.Recovered(), want))
	}
	after, err := fetchAnswers(ts)
	if err != nil {
		return append(fails, "restart: "+err.Error())
	}
	if before != nil && (!bytes.Equal(after.topk, before.topk) || !bytes.Equal(after.rank, before.rank)) {
		fails = append(fails, "restarted server answers differ from the answers before shutdown")
	}
	return fails
}

// do issues one op and records what came back.
func (l *clientLog) do(ts *httptest.Server, i int, o *op) {
	var (
		resp *http.Response
		err  error
	)
	start := time.Now()
	if o.kind == opIngest {
		resp, err = ts.Client().Post(ts.URL+"/ingest", "application/json", bytes.NewReader(o.body))
	} else {
		resp, err = ts.Client().Get(ts.URL + o.path)
	}
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(start)) / 1e6
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	class := ""
	switch {
	case err != nil:
	case o.kind == opIngest:
		class = "ingest"
		var ir server.IngestResponse
		if err = json.Unmarshal(body, &ir); err == nil {
			l.acks = append(l.acks, ack{op: i, total: ir.Records})
		}
	case o.kind == opTopK:
		class = "exact_" + resp.Header.Get("X-Cache")
	case o.kind == opRank:
		class = "rank_" + resp.Header.Get("X-Cache")
	default:
		class = "approx"
		if o.kind == opHybrid {
			class = "hybrid"
		}
		var ar server.ApproxTopKResponse
		if err = json.Unmarshal(body, &ar); err == nil {
			l.answers = append(l.answers, sketchAnswer{records: ar.Records, entries: ar.Entries})
			bound, _ := strconv.ParseFloat(resp.Header.Get(server.XApproxBound), 64)
			l.maxErr = append(l.maxErr, bound)
		}
	}
	if err != nil {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, fmt.Sprintf("op %d: %v", i, err))
		}
		return
	}
	l.lat[class] = append(l.lat[class], ms)
}

// get fetches one path and returns the body and the X-Cache header.
func get(ts *httptest.Server, path string) ([]byte, string, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache"), nil
}
