package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"topkdedup/internal/obs"
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
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
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

// writeLog appends testBatch(0..n-1) to a fresh log in dir, closes it,
// and returns the batches and the log file's bytes.
func writeLog(t *testing.T, dir string, n int) ([]Batch, []byte) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < n; i++ {
		b := testBatch(i)
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return want, data
}

// frameOffsets returns the start offset of every frame of a valid log.
func frameOffsets(data []byte) []int {
	var offs []int
	for off := headerLen; off < len(data); off += frameHeader + int(binary.LittleEndian.Uint32(data[off:])) {
		offs = append(offs, off)
	}
	return offs
}

// Acknowledged batches follow a damaged frame anywhere before the last,
// so no crash can explain it: flipping any checksum or payload byte of
// frames 0–8 of a 10-batch log makes Open refuse with ErrCorrupt and
// leave the file byte-identical, never replay a prefix and truncate the
// rest.
func TestMidLogFlipIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, orig := writeLog(t, dir, 10)
	path := filepath.Join(dir, logName)
	offs := frameOffsets(orig)
	if len(offs) != 10 {
		t.Fatalf("log holds %d frames, want 10", len(offs))
	}
	for f := 0; f < len(offs)-1; f++ {
		for i := offs[f] + 4; i < offs[f+1]; i++ {
			data := bytes.Clone(orig)
			data[i] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirState(t, dir)
			if l, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("byte %d of frame %d flipped: Open err=%v, want ErrCorrupt", i-offs[f], f, err)
			}
			if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("byte %d of frame %d flipped: refused Open changed the directory", i-offs[f], f)
			}
		}
	}
}

// A frame whose checksum verifies was written whole, so a payload that
// does not decode is never a crash artifact: ErrCorrupt even as the last
// frame, with the file unchanged.
func TestUndecodableFrameIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, orig := writeLog(t, dir, 3)
	payload := []byte{0xff} // an unterminated uvarint record count
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	data := append(append(bytes.Clone(orig), frame...), payload...)
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a verified, undecodable last frame: err=%v, want ErrCorrupt", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("refused Open changed the log (err=%v)", err)
	}
}

// A power loss can leave the file longer than its last written frame,
// zero-filled; nothing complete follows, so Open truncates the zeros and
// keeps every batch.
func TestZeroTailTruncated(t *testing.T) {
	dir := t.TempDir()
	want, orig := writeLog(t, dir, 5)
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, append(bytes.Clone(orig), make([]byte, 8<<10)...), 0o644); err != nil {
		t.Fatal(err)
	}
	sink := obs.NewCollector()
	l, err := Open(dir, Options{Sink: sink})
	if err != nil {
		t.Fatalf("open with a zero-filled tail: %v", err)
	}
	defer l.Close()
	if got := collect(t, l, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d batches, want %d", len(got), len(want))
	}
	if n := sink.CounterValue("wal.replay.truncated_bytes"); n != 8<<10 {
		t.Fatalf("wal.replay.truncated_bytes=%d, want %d", n, 8<<10)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("file after truncation differs from the written log (err=%v)", err)
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

// writeLaterFile adds to dir the header-only wal-*.log a binary that
// rotated segments would have started at batch index first.
func writeLaterFile(t *testing.T, dir string, first uint64) {
	t.Helper()
	header := binary.LittleEndian.AppendUint64([]byte(logMagic), first)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.log", first)), header, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertRefusedUntouched opens dir and requires ErrCorrupt with every
// file in it unchanged.
func assertRefusedUntouched(t *testing.T, dir string) {
	t.Helper()
	before := dirState(t, dir)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with %d files: err=%v, want ErrCorrupt", len(before), err)
	}
	if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory")
	}
}

// The log is the only copy of the data, so a directory holding a second
// wal-*.log — here a segmented log whose middle file, batches 5–9, is
// gone — is refused whole, never recovered from its first file, and Open
// touches nothing, not even that file's torn tail.
func TestMissingSegmentIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, orig := writeLog(t, dir, 5)
	if err := os.WriteFile(filepath.Join(dir, logName), append(bytes.Clone(orig), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	writeLaterFile(t, dir, 10)
	assertRefusedUntouched(t, dir)
}

// A directory whose only wal-*.log starts past batch 0 has lost its head:
// Open refuses it rather than create a fresh log beside it, and leaves
// the file, torn tail included, as it found it.
func TestOpenRefusesChainNotAtZero(t *testing.T) {
	dir := t.TempDir()
	writeLaterFile(t, dir, 5)
	later := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", 5))
	f, err := os.OpenFile(later, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	assertRefusedUntouched(t, dir)
}

// The log file never exists without its header: Open creates it under a
// temporary name, so a crash during creation leaves only that file, and
// the next Open creates the log afresh. A temporary file left beside a
// complete log is removed.
func TestOpenRemovesLeftoverTempFile(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, logName+tmpSuffix)
	if err := os.WriteFile(tmp, []byte(logMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after a crash during creation: %v", err)
	}
	if _, err := l.Append(testBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temporary file after creation: %v", err)
	}

	if err := os.WriteFile(tmp, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, []Batch{testBatch(0)}) {
		t.Fatalf("recovered %d batches, want 1", len(got))
	}
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("leftover temporary file not removed: %v", err)
	}
}

// goldenLog is the file a log holds after testBatch(0..3): the 16-byte
// header, then one frame per batch. Logs written by the segmented format
// this one replaces, below its 64 MiB rotation size, are these bytes.
const goldenLog = "544b57414c5347310000000000000000" +
	"2800000064bdf1ef02000000000000e03f0274300207616c70686120300178000000000000f03f000106626574612030" +
	"170000004278237801000000000000f83f0274310207616c70686120310178" +
	"17000000f6ebc6660100000000000004400274320207616c70686120320178" +
	"28000000dd52b147020000000000000c400274330207616c70686120330178000000000000f03f000106626574612033"

// TestOnDiskGolden pins the whole file, header and frames, in both
// directions: the writer produces exactly goldenLog, and a directory
// holding goldenLog opens and replays the same batches.
func TestOnDiskGolden(t *testing.T) {
	golden, err := hex.DecodeString(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	want, data := writeLog(t, t.TempDir(), 4)
	if !bytes.Equal(data, golden) {
		t.Fatalf("written log\n got %x\nwant %x", data, golden)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden log replayed %v, want %v", got, want)
	}
}

// A snap-*.dat left beside a complete chain by an older binary is
// neither read nor deleted: every record comes back from the log.
func TestOpenIgnoresStaleSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
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
	l2, err := Open(dir, Options{})
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
	sink := obs.NewCollector()
	l, err := Open(dir, Options{Sync: SyncInterval, Sink: sink})
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
	// Appends under SyncInterval do not fsync; the ticker must.
	for deadline := time.Now().Add(5 * time.Second); sink.CounterValue("wal.fsyncs") == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the SyncInterval ticker never fsynced")
		}
	}
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
				l, err := Open(dir, Options{Hook: CrashAt(p, uint64(i))})
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

				l2, err := Open(dir, Options{})
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
	full, err := os.ReadFile(filepath.Join(src, logName))
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
		if err := os.WriteFile(filepath.Join(dir, logName), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			// No crash leaves a header shorter than headerLen (the file
			// is created with its header under a temporary name), so
			// ErrCorrupt is the answer there; silent data loss is not.
			if errors.Is(err, ErrCorrupt) && off < headerLen {
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
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last frame's payload: CRC check must stop the scan
	// there, keeping the first two frames.
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
