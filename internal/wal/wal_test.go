package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// testBatch builds a small deterministic batch whose content encodes i,
// so replay order mistakes are visible in the data itself.
func testBatch(i int) Batch {
	b := Batch{
		{Weight: float64(i) + 0.5, Truth: fmt.Sprintf("t%d", i), Values: []string{fmt.Sprintf("alpha %d", i), "x"}},
	}
	if i%3 == 0 {
		b = append(b, Record{Weight: 1, Values: []string{fmt.Sprintf("beta %d", i)}})
	}
	return b
}

// collect replays the full log into a slice.
func collect(t *testing.T, l *Log, from uint64) []Batch {
	t.Helper()
	var out []Batch
	next := from
	if err := l.Replay(from, func(idx uint64, b Batch) error {
		if idx != next {
			t.Fatalf("replay index %d, want %d", idx, next)
		}
		next++
		out = append(out, b)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 20; i++ {
		b := testBatch(i)
		idx, err := l.Append(b)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("append %d returned index %d", i, idx)
		}
		want = append(want, b)
	}
	got := collect(t, l, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: same contents, next index resumes.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := l2.NextIndex(); n != 20 {
		t.Fatalf("NextIndex after reopen = %d, want 20", n)
	}
	got = collect(t, l2, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen mismatch")
	}
	// Partial replay skips the prefix.
	tail := collect(t, l2, 15)
	if !reflect.DeepEqual(tail, want[15:]) {
		t.Fatalf("tail replay mismatch")
	}
}

func TestWeightBitExactness(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	weights := []float64{0, math.Copysign(0, -1), 1e-300, math.MaxFloat64, 0.1 + 0.2}
	var b Batch
	for _, w := range weights {
		b = append(b, Record{Weight: w, Values: []string{"v"}})
	}
	if _, err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)[0]
	for i, w := range weights {
		if math.Float64bits(got[i].Weight) != math.Float64bits(w) {
			t.Fatalf("weight %d: bits %x, want %x", i, math.Float64bits(got[i].Weight), math.Float64bits(w))
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of batches.
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 40; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across %d segments mismatch", len(segs))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 5; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that looks like a frame
	// header promising more bytes than exist.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.LittleEndian.PutUint32(torn[:4], 1000)
	f.Write(torn[:])
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail corrupted replay")
	}
	// Appends continue cleanly after the truncation.
	b := testBatch(5)
	if idx, err := l2.Append(b); err != nil || idx != 5 {
		t.Fatalf("append after torn tail: idx=%d err=%v", idx, err)
	}
	want = append(want, b)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := collect(t, l3, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after post-truncation append mismatch")
	}
}

func TestMiddleSegmentCorruptionIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment: acknowledged data is
	// damaged, so recovery must refuse, not silently truncate history.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+frameHeader] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt middle segment: err=%v, want ErrCorrupt", err)
	}
}

func TestMissingSegmentIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing middle segment: err=%v, want ErrCorrupt", err)
	}
}

// dirState lists a directory as name → content, to assert a refused or
// ignoring Open changed nothing on disk.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(data)
	}
	return state
}

// The log is the only copy of the data, so a chain whose head is gone —
// what a binary that still pruned behind snapshots leaves — is refused
// whole, never recovered from the middle, and Open touches nothing.
func TestOpenRefusesChainNotAtZero(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	// A torn tail too: a refused Open must not even truncate it.
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tail.Write([]byte{1, 2, 3})
	tail.Close()
	before := dirState(t, dir)
	if _, err := Open(dir, Options{SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing first segment: err=%v, want ErrCorrupt", err)
	}
	if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory")
	}
}

// A snap-*.dat left beside a complete chain by an older binary is
// neither read nor deleted: every record comes back from the log.
func TestOpenIgnoresStaleSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 12; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Named as the old format named the state after 8 batches.
	stale := filepath.Join(dir, fmt.Sprintf("snap-%016x.dat", 8))
	content := []byte("a state snapshot no binary reads any more")
	if err := os.WriteFile(stale, content, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open beside a stale snapshot file: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d batches from the log, want %d", len(got), len(want))
	}
	if n := l2.NextIndex(); n != uint64(len(want)) {
		t.Fatalf("NextIndex=%d, want %d", n, len(want))
	}
	if got, err := os.ReadFile(stale); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("stale snapshot file was touched: err=%v", err)
	}
}

func TestCrashAtFiresOnce(t *testing.T) {
	hook := CrashAt(CrashMidFrame, 3)
	if err := hook(CrashMidFrame, 2); err != nil {
		t.Fatalf("wrong index fired: %v", err)
	}
	if err := hook(CrashAfterSync, 3); err != nil {
		t.Fatalf("wrong point fired: %v", err)
	}
	if err := hook(CrashMidFrame, 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching point/index must crash, got %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testBatch(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 10; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	time.Sleep(10 * time.Millisecond) // let the ticker fire at least once
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("SyncInterval replay mismatch")
	}
}

// TestCrashRecoveryEveryPoint is the WAL-level crash-recovery property
// test: for every batch index i and every crash point p, run a writer
// that crashes at exactly (i, p), reopen the directory, and assert the
// recovered prefix is precisely the batches the crash semantics say
// survived — i batches for CrashBeforeFrame/CrashMidFrame (the frame
// never fully landed), i+1 for CrashAfterFrame/CrashAfterSync (it did).
// Every trial also re-verifies the recovered log accepts appends and
// replays the extended sequence, so recovery leaves a *writable* log,
// not just a readable one.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	const nBatches = 8
	for p := CrashPoint(0); p < NumCrashPoints; p++ {
		for i := 0; i < nBatches; i++ {
			p, i := p, i
			t.Run(fmt.Sprintf("point%d_batch%d", p, i), func(t *testing.T) {
				dir := t.TempDir()
				// Small segments so crashes also land near rotation
				// boundaries across the sweep.
				l, err := Open(dir, Options{SegmentBytes: 256, Hook: CrashAt(p, uint64(i))})
				if err != nil {
					t.Fatal(err)
				}
				var appended []Batch
				crashed := false
				for j := 0; j < nBatches; j++ {
					b := testBatch(j)
					_, err := l.Append(b)
					if err != nil {
						if !errors.Is(err, ErrCrashed) {
							t.Fatalf("append %d: %v", j, err)
						}
						crashed = true
						// The crash semantics decide whether this batch
						// survived on disk despite the error return.
						if p == CrashAfterFrame || p == CrashAfterSync {
							appended = append(appended, b)
						}
						break
					}
					appended = append(appended, b)
				}
				if !crashed {
					t.Fatalf("hook never fired")
				}
				l.Close() // a crashed log's Close must not undo the damage model

				l2, err := Open(dir, Options{SegmentBytes: 256})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer l2.Close()
				got := collect(t, l2, 0)
				if !reflect.DeepEqual(got, appended) {
					t.Fatalf("recovered %d batches, want %d (point %d, crash at %d)",
						len(got), len(appended), p, i)
				}
				if n := l2.NextIndex(); n != uint64(len(appended)) {
					t.Fatalf("NextIndex=%d, want %d", n, len(appended))
				}
				// Recovery must leave a writable log.
				extra := testBatch(99)
				if idx, err := l2.Append(extra); err != nil || idx != uint64(len(appended)) {
					t.Fatalf("append after recovery: idx=%d err=%v", idx, err)
				}
				got = collect(t, l2, 0)
				if !reflect.DeepEqual(got, append(append([]Batch{}, appended...), extra)) {
					t.Fatalf("replay after post-recovery append mismatch")
				}
			})
		}
	}
}

// TestCrashRecoveryRandomTruncation truncates a finished log at random
// byte offsets (seeded) and asserts recovery always yields a clean
// prefix of the appended batches — never garbage, never a panic — and
// that the recovered count is monotone in the truncation offset.
func TestCrashRecoveryRandomTruncation(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 12; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("expected single segment, got %d", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	type trial struct {
		off int64
		n   int
	}
	var trials []trial
	for k := 0; k < 60; k++ {
		off := rng.Int63n(int64(len(full)) + 1)
		dir := filepath.Join(base, fmt.Sprintf("trunc%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			// A header shorter than segHeaderLen on the only segment is
			// indistinguishable from a crash during creation only when
			// the file is empty-ish; ErrCorrupt is acceptable for a
			// mangled header, silent data loss is not.
			if errors.Is(err, ErrCorrupt) && off < segHeaderLen {
				continue
			}
			t.Fatalf("open at offset %d: %v", off, err)
		}
		got := collect(t, l2, 0)
		l2.Close()
		for j, b := range got {
			if !reflect.DeepEqual(b, want[j]) {
				t.Fatalf("offset %d: batch %d differs from original", off, j)
			}
		}
		trials = append(trials, trial{off, len(got)})
	}
	// Monotonicity: more surviving bytes can never mean fewer batches.
	sort.Slice(trials, func(i, j int) bool { return trials[i].off < trials[j].off })
	for i := 1; i < len(trials); i++ {
		if trials[i].n < trials[i-1].n {
			t.Fatalf("recovered count not monotone: offset %d→%d batches, offset %d→%d",
				trials[i-1].off, trials[i-1].n, trials[i].off, trials[i].n)
		}
	}
}

// TestScanSegmentRejectsBadCRC covers the frame-validation path
// directly: flipping any byte of a frame makes that frame (and
// everything after it) invisible, never mis-decoded.
func TestScanSegmentRejectsBadCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last frame's payload: CRC check must stop the scan
	// there, keeping the first two frames.
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("recovered %d frames after tail bit flip, want 2", len(got))
	}
}

// TestFrameEncodingGolden pins the exact frame byte layout so the
// on-disk format can't drift silently (len u32le | crc32c u32le |
// payload).
func TestFrameEncodingGolden(t *testing.T) {
	b := Batch{{Weight: 2, Truth: "t", Values: []string{"ab"}}}
	payload := encodeBatch(nil, b)
	want := []byte{1}                                        // record count
	var w [8]byte                                            //
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(2)) // weight bits
	want = append(want, w[:]...)
	want = append(want, 1, 't')      // truth
	want = append(want, 1)           // value count
	want = append(want, 2, 'a', 'b') // value
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload %x, want %x", payload, want)
	}
	if crc32.Checksum(payload, crcTable) != crc32.Checksum(want, crcTable) {
		t.Fatalf("crc mismatch")
	}
	rt, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, b) {
		t.Fatalf("decode round trip mismatch")
	}
}
