// Crash-recovery property tests: a server killed at EVERY WAL crash
// point of every batch, and truncated at random byte offsets, must
// reboot into a state byte-identical to a server that ingested exactly
// the surviving batch prefix uninterrupted — same /topk bytes, same
// /rank bytes, same record count. The crash is simulated through
// Config.WALOptions.Hook (wal.CrashAt), so every case is
// deterministic and reproduces from its (point, index) or seed alone.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	topk "topkdedup"
	"topkdedup/internal/wal"
)

const (
	crashBatches   = 6
	crashBatchSize = 5
)

// crashPlan builds the deterministic ingest stream: crashBatches batches
// of crashBatchSize records with clustered names, weights non-trivial so
// group aggregates depend on exactly which batches survived.
func crashPlan() [][]IngestRecord {
	plan := make([][]IngestRecord, crashBatches)
	for b := range plan {
		recs := make([]IngestRecord, crashBatchSize)
		for i := range recs {
			e := (b*crashBatchSize + i) % 7
			recs[i] = IngestRecord{
				Weight: 1 + 0.01*float64(b) + 0.001*float64(i),
				Truth:  fmt.Sprintf("E%02d", e),
				Values: []string{fmt.Sprintf("%c%02d.v%d", 'a'+e%4, e, (b+i)%3)},
			}
		}
		plan[b] = recs
	}
	return plan
}

// crashCanon fetches /topk and /rank and canonicalises them with only
// the timing fields zeroed: two freshly booted single-machine servers
// over the same record sequence must agree on every other byte,
// including eval counters.
func crashCanon(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	canon := func(path string, into any, stats func() []topk.LevelStats) string {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var raw struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw.Result, into); err != nil {
			t.Fatal(err)
		}
		stripTimes(stats())
		out, err := json.Marshal(into)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	var res topk.Result
	tk := canon("/topk?k=3&r=2", &res, func() []topk.LevelStats { return res.Pruning })
	var rk topk.RankResult
	rank := canon("/rank?k=3", &rk, func() []topk.LevelStats { return rk.PrunedStats })
	return tk + "\n" + rank
}

// referenceCanon runs the first n batches through a WAL-less server and
// returns its canonical answer — the oracle every recovery must match.
func referenceCanon(t *testing.T, plan [][]IngestRecord, n int) string {
	t.Helper()
	_, ts := newTestServer(t, nil)
	for b := 0; b < n; b++ {
		ingestBatch(t, ts, plan[b])
	}
	return crashCanon(t, ts)
}

// survivors is the recovery contract per crash point under SyncAlways:
// a crash before or inside the frame of batch i loses it (i survive); a
// crash after the frame is written keeps it (i+1 survive) — the frame,
// once complete and checksummed, replays whether or not the fsync ran.
func survivors(p wal.CrashPoint, i int) int {
	if p == wal.CrashBeforeFrame || p == wal.CrashMidFrame {
		return i
	}
	return i + 1
}

// bootServer opens a server over an existing WAL dir with no hook — the
// reborn process.
func bootServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts := newTestServer(t, func(c *Config) { c.WALDir = dir })
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// runCrashCase kills a WAL-enabled server at (point, crashIdx) by
// ingesting until the injected crash fires, then reboots on the same
// dir and returns the recovered server. The ingest that hits the crash
// must 500; every earlier one must 200.
func runCrashCase(t *testing.T, plan [][]IngestRecord, p wal.CrashPoint, crashIdx int) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, func(c *Config) {
		c.WALDir = dir
		c.WALOptions = wal.Options{Hook: wal.CrashAt(p, uint64(crashIdx))}
	})
	defer srv1.Close()
	for b := 0; b <= crashIdx; b++ {
		resp := postJSON(t, ts1, "/ingest", IngestRequest{Records: plan[b]})
		resp.Body.Close()
		if b < crashIdx && resp.StatusCode != http.StatusOK {
			t.Fatalf("point %d crash %d: batch %d failed early: status %d", p, crashIdx, b, resp.StatusCode)
		}
		if b == crashIdx && resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("point %d crash %d: crashing batch answered %d, want 500", p, crashIdx, resp.StatusCode)
		}
	}
	ts1.Close()
	return bootServer(t, dir)
}

// TestCrashRecoveryEveryPointHTTP is the exhaustive sweep: every crash
// point × every batch index, each case rebooted and compared against the
// uninterrupted reference over the surviving prefix.
func TestCrashRecoveryEveryPointHTTP(t *testing.T) {
	plan := crashPlan()
	refs := make([]string, crashBatches+1)
	for n := 0; n <= crashBatches; n++ {
		refs[n] = referenceCanon(t, plan, n)
	}
	for p := wal.CrashPoint(0); p < wal.NumCrashPoints; p++ {
		for i := 0; i < crashBatches; i++ {
			t.Run(fmt.Sprintf("point%d_batch%d", p, i), func(t *testing.T) {
				srv2, ts2 := runCrashCase(t, plan, p, i)
				want := survivors(p, i)
				if got := srv2.Recovered(); got != want*crashBatchSize {
					t.Fatalf("recovered %d records, want %d (%d batches)", got, want*crashBatchSize, want)
				}
				if got := crashCanon(t, ts2); got != refs[want] {
					t.Fatalf("recovered answer differs from uninterrupted run over %d batches\ngot:  %s\nwant: %s",
						want, got, refs[want])
				}
				// The reborn log must accept appends: ingest one more batch
				// and check it lands.
				ir := ingestBatch(t, ts2, plan[crashBatches-1])
				if ir.Records != (want+1)*crashBatchSize {
					t.Fatalf("post-recovery ingest total %d, want %d", ir.Records, (want+1)*crashBatchSize)
				}
			})
		}
	}
}

// TestCrashRecoveryRandomTruncationHTTP truncates a cleanly written log
// at random byte offsets: boot must recover some prefix of the batches
// (never a torn batch, never a reordering) and answer byte-identically
// to the reference over that prefix. On failure the offset is greedily
// shrunk toward zero to report the smallest failing truncation.
func TestCrashRecoveryRandomTruncationHTTP(t *testing.T) {
	plan := crashPlan()
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, func(c *Config) {
		c.WALDir = dir
	})
	for b := 0; b < crashBatches; b++ {
		ingestBatch(t, ts1, plan[b])
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one log file, got %v (%v)", segs, err)
	}
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]string, crashBatches+1)
	for n := 0; n <= crashBatches; n++ {
		refs[n] = referenceCanon(t, plan, n)
	}

	// checkOffset reboots from the log truncated at off and returns an
	// error describing any violated recovery property.
	checkOffset := func(t *testing.T, off int) error {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, filepath.Base(segs[0])), orig[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// A truncation inside the header mangles the file identity itself,
		// and no crash leaves one (the log is created with its header under
		// a temporary name); refusing to boot (ErrCorrupt) is the correct
		// posture there — silently recovering zero records is not.
		if off < 16 {
			if _, err := New(Config{Schema: []string{"name"}, Levels: toyLevels(), WALDir: tdir}); !errors.Is(err, wal.ErrCorrupt) {
				return fmt.Errorf("offset %d (inside header): boot returned %v, want ErrCorrupt", off, err)
			}
			return nil
		}
		srv, ts := bootServer(t, tdir)
		rec := srv.Recovered()
		if rec%crashBatchSize != 0 {
			return fmt.Errorf("offset %d: recovered %d records — a torn batch survived", off, rec)
		}
		n := rec / crashBatchSize
		if n > crashBatches {
			return fmt.Errorf("offset %d: recovered %d batches, only %d were written", off, n, crashBatches)
		}
		if got := crashCanon(t, ts); got != refs[n] {
			return fmt.Errorf("offset %d: answer differs from uninterrupted run over %d batches", off, n)
		}
		return nil
	}

	rng := rand.New(rand.NewSource(42))
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		off := rng.Intn(len(orig) + 1)
		if err := checkOffset(t, off); err != nil {
			// Greedy shrink: walk the failing offset down while it keeps
			// failing, so the report names the minimal reproduction.
			min := off
			for min > 0 {
				if checkOffset(t, min-1) == nil {
					break
				}
				min--
			}
			t.Fatalf("truncation property failed (shrunk to offset %d): %v", min, err)
		}
	}
	// Monotonic anchor points: a longer prefix never recovers fewer
	// batches than a shorter one.
	prev := -1
	for off := 16; off <= len(orig); off += len(orig) / 10 {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, filepath.Base(segs[0])), orig[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		srv, _ := bootServer(t, tdir)
		if srv.Recovered() < prev {
			t.Fatalf("offset %d recovered %d records, shorter prefix recovered %d", off, srv.Recovered(), prev)
		}
		prev = srv.Recovered()
	}
}

// TestMidLogFlipRefusesBoot flips one payload byte of batch 2 of a
// 6-batch log. No crash leaves a damaged frame with acknowledged batches
// after it, so boot must fail with wal.ErrCorrupt and leave the file as
// it found it — never come up serving the two batches before the flip.
func TestMidLogFlipRefusesBoot(t *testing.T) {
	plan := crashPlan()
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, func(c *Config) { c.WALDir = dir })
	for b := 0; b < crashBatches; b++ {
		ingestBatch(t, ts1, plan[b])
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0000000000000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 16 // past the header; each frame is len u32le | crc u32le | payload
	for b := 0; b < 2; b++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	data[off+8+3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Schema: []string{"name"}, Levels: toyLevels(), WALDir: dir})
	if err == nil {
		defer srv.Close()
		t.Fatalf("boot over a mid-log flip recovered %d records, want wal.ErrCorrupt", srv.Recovered())
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("boot over a mid-log flip: %v, want wal.ErrCorrupt", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("refused boot changed the log (err=%v)", err)
	}
}

// TestWALAppendErrorNeverApplies pins the WAL-then-apply ordering: when
// the log refuses a batch (simulated crash), the accumulator must not
// see any of its records, and the server's answers must be those of the
// pre-batch state.
func TestWALAppendErrorNeverApplies(t *testing.T) {
	plan := crashPlan()
	dir := t.TempDir()
	srv, ts := newTestServer(t, func(c *Config) {
		c.WALDir = dir
		c.WALOptions = wal.Options{Hook: wal.CrashAt(wal.CrashBeforeFrame, 1)}
	})
	defer srv.Close()
	ingestBatch(t, ts, plan[0])
	resp := postJSON(t, ts, "/ingest", IngestRequest{Records: plan[1]})
	var errBody ErrorResponse
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("crashed append answered %d, want 500", resp.StatusCode)
	}
	if errBody.Error == "" {
		t.Fatal("crashed append returned no error body")
	}
	if got := srv.Records(); got != crashBatchSize {
		t.Fatalf("failed batch leaked into the accumulator: %d records, want %d", got, crashBatchSize)
	}
	// After the simulated crash the log is dead (like the process): every
	// later ingest must fail too, without applying.
	resp2 := postJSON(t, ts, "/ingest", IngestRequest{Records: plan[2]})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest on dead log answered %d, want 500", resp2.StatusCode)
	}
	if got := srv.Records(); got != crashBatchSize {
		t.Fatalf("dead-log ingest applied records: %d, want %d", got, crashBatchSize)
	}
}
