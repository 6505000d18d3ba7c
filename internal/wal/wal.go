// Package wal makes ingest durable: a segmented write-ahead log whose
// append path is the serving layer's durability point (SERVING.md
// "Durability"). Every accepted /ingest batch is framed, checksummed,
// and (per the fsync policy) synced to disk before it touches the
// accumulator, so a crash at any instant loses at most the batches the
// policy had not yet synced — never a prefix gap and never a torn
// half-batch.
//
// On-disk layout (one directory per log):
//
//	wal-<firstIndex>.log   segments: 16-byte header (magic + first
//	                       batch index), then length-prefixed
//	                       CRC32C-framed batch records
//
// A frame is `len u32le | crc32c u32le | payload`; the payload is the
// flat batch encoding of encodeBatch. A frame is the atomicity unit:
// replay accepts a frame only when its length and checksum verify, so a
// torn tail (crash mid-write) drops the partial frame and nothing else.
// Open truncates such a tail from the final segment; a short or
// corrupt frame anywhere *before* the final segment is data loss, not a
// crash artifact, and surfaces as ErrCorrupt.
//
// The log is the state: the segments are the only durable format, and
// boot recovery is Replay(0, …) re-applying every batch in order — linear
// in the records ever accepted (SERVING.md has the measured cost). Open
// therefore requires the segment chain to start at batch 0 and refuses,
// with ErrCorrupt, a directory whose head is missing. The Hook seam
// exists for the deterministic crash-point tests (CrashAt) — production
// logs leave it nil.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"topkdedup/internal/obs"
)

// Record is one durable ingest record: the weight/truth/values triple
// the serving layer accumulates.
type Record struct {
	// Weight is the record's aggregation weight (already defaulted: the
	// server normalises omitted weights to 1 before logging).
	Weight float64
	// Truth is the optional ground-truth label.
	Truth string
	// Values are the field values in schema order.
	Values []string
}

// Batch is one atomically logged ingest batch — the WAL's frame unit.
type Batch []Record

// SyncPolicy selects when Append fsyncs the active segment.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a 200 OK on /ingest means
	// the batch is on stable storage. The default and the only policy
	// under which the crash-recovery tests may assume zero loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker every
	// Options.SyncEvery; a crash may lose the last interval's batches
	// (but still never tears a frame).
	SyncInterval
	// SyncNever leaves syncing to the OS page cache.
	SyncNever
)

// CrashPoint identifies where inside one Append a fault Hook fires; the
// four points cover every distinct on-disk outcome of a crash.
type CrashPoint int

const (
	// CrashBeforeFrame aborts before any frame byte is written: the
	// batch is wholly absent after recovery.
	CrashBeforeFrame CrashPoint = iota
	// CrashMidFrame writes only the first half of the frame — the torn
	// write replay must drop.
	CrashMidFrame
	// CrashAfterFrame crashes with the frame fully written but not
	// fsynced.
	CrashAfterFrame
	// CrashAfterSync crashes after the fsync: the batch is durable.
	CrashAfterSync
	// NumCrashPoints is the crash-point count, for exhaustive sweeps.
	NumCrashPoints = 4
)

// Hook intercepts Append for fault injection: it is called at each
// CrashPoint with the batch index being appended, and a non-nil return
// simulates a process crash at that point — the writer performs the
// point's torn-write effect, marks itself dead, and surfaces ErrCrashed.
// Production logs leave it nil; CrashAt is the tests' implementation.
type Hook func(point CrashPoint, index uint64) error

// ErrInjected is the base error of every CrashAt fault; tests can
// errors.Is against it to tell an injected crash from a real failure.
var ErrInjected = errors.New("wal: injected fault")

// CrashAt returns a Hook that simulates a process crash at exactly one
// (crash point, batch index) pair, so a failing crash schedule replays
// from its two numbers alone — the building block of the exhaustive
// crash-point sweeps. Production code never calls it.
func CrashAt(point CrashPoint, index uint64) Hook {
	return func(p CrashPoint, idx uint64) error {
		if p == point && idx == index {
			return fmt.Errorf("%w: wal crash at point %d, batch %d", ErrInjected, point, index)
		}
		return nil
	}
}

// Options configures Open. The zero value selects 64 MiB segments,
// SyncAlways, and no hook.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 64 MiB; a frame larger than the limit still lands in
	// one segment — frames never split).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period (default 100ms).
	SyncEvery time.Duration
	// Hook is the fault-injection seam (tests only; nil in production).
	Hook Hook
	// Sink, when non-nil, receives the wal.* metrics (OBSERVABILITY.md).
	Sink obs.Sink
}

// Typed failures of the log lifecycle.
var (
	// ErrClosed reports an operation on a closed (or crashed) log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCrashed wraps the hook error of a simulated crash; the log is
	// unusable afterwards, like the process it stands in for.
	ErrCrashed = errors.New("wal: simulated crash")
	// ErrCorrupt reports damage before the final segment's tail — a
	// missing segment, a checksum mismatch, or a non-contiguous index —
	// which recovery must refuse to silently skip.
	ErrCorrupt = errors.New("wal: corrupt log")
)

const (
	segMagic     = "TKWALSG1"
	segHeaderLen = 16 // magic + first-index u64le
	frameHeader  = 8  // len u32le + crc u32le
	// maxFrame bounds a frame length read from disk; anything larger is
	// corruption, not a real batch.
	maxFrame = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one on-disk log file's metadata, maintained by Open and
// Append.
type segment struct {
	path  string
	first uint64 // index of the segment's first batch
	count uint64 // complete frames in the segment
	size  int64  // valid bytes (header + complete frames)
}

// Log is an open write-ahead log. Append/Close are safe
// for concurrent use; replay helpers are read-only over closed state.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []segment
	f        *os.File // active (last) segment
	next     uint64   // index the next Append receives
	dead     bool     // crashed via hook: all further ops fail
	closed   bool
	sink     obs.Sink
	stopSync chan struct{} // SyncInterval ticker shutdown
	syncWG   sync.WaitGroup
}

// Open scans dir (creating it if needed), validates every segment,
// truncates a torn tail from the final segment, and returns a log
// positioned to append. Corruption before the final segment's tail —
// including a gap in the segment chain — fails with ErrCorrupt rather
// than silently dropping acknowledged batches.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, sink: opts.Sink}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	l.openGauges()
	if opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// openGauges publishes the open-segment health gauges (wal.open.segments
// and wal.open.bytes). Callers hold l.mu (or, like Open, still own the
// log exclusively); every path that changes the segment chain — append
// growth, rotation — calls it so scrapes always see the current on-disk
// footprint.
func (l *Log) openGauges() {
	if l.sink == nil {
		return
	}
	var bytes int64
	for i := range l.segs {
		bytes += l.segs[i].size
	}
	obs.Gauge(l.sink, "wal.open.segments", float64(len(l.segs)))
	obs.Gauge(l.sink, "wal.open.bytes", float64(bytes))
}

// NextIndex returns the index the next Append will be assigned — equal
// to the number of complete batches the log has ever accepted.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// scan reads the segment chain: parses names, orders by first index,
// verifies contiguity, counts complete frames, and truncates the final
// segment's torn tail. A freshly crashed, not-yet-headered final
// segment is reset rather than rejected.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var first uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016x.log", &first); n != 1 || err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	if len(segs) == 0 {
		return nil // fresh log: openActive creates the segment at batch 0
	}
	if first := segs[0].first; first != 0 {
		// The log is the only copy of the data: a chain whose head is gone
		// (an older binary pruned it behind a snapshot) cannot be recovered.
		return fmt.Errorf("%w: first segment starts at batch %d, want 0", ErrCorrupt, first)
	}
	for i := range segs {
		last := i == len(segs)-1
		count, size, serr := scanSegment(segs[i].path, segs[i].first)
		if serr != nil {
			if !last {
				return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, segs[i].path, serr)
			}
			if errors.Is(serr, errBadHeader) && i > 0 {
				// Crash between creating the file and writing its header:
				// the segment holds nothing; reset it to continue from the
				// previous segment's end.
				segs[i].first = segs[i-1].first + segs[i-1].count
				if werr := writeSegmentHeader(segs[i].path, segs[i].first); werr != nil {
					return werr
				}
				count, size = 0, segHeaderLen
			} else {
				return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, segs[i].path, serr)
			}
		}
		if i > 0 && segs[i].first != segs[i-1].first+segs[i-1].count {
			return fmt.Errorf("%w: segment %s starts at %d, previous ends at %d",
				ErrCorrupt, segs[i].path, segs[i].first, segs[i-1].first+segs[i-1].count)
		}
		segs[i].count, segs[i].size = count, size
		if last {
			// Drop the torn tail so appends never interleave with garbage.
			fi, err := os.Stat(segs[i].path)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			if fi.Size() > size {
				if err := os.Truncate(segs[i].path, size); err != nil {
					return fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				obs.Count(l.sink, "wal.replay.truncated_bytes", fi.Size()-size)
			}
		}
	}
	l.segs = segs
	tail := segs[len(segs)-1]
	l.next = tail.first + tail.count
	return nil
}

// errBadHeader distinguishes a missing/short/garbled segment header
// from frame-level damage during scan.
var errBadHeader = errors.New("bad segment header")

// scanSegment walks one segment's frames and returns how many are
// complete and the byte length of that valid prefix. Damage after the
// valid prefix is reported only through size (the caller decides
// whether it is a torn tail or corruption).
func scanSegment(path string, wantFirst uint64) (count uint64, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < segHeaderLen || string(data[:8]) != segMagic {
		return 0, 0, errBadHeader
	}
	if first := binary.LittleEndian.Uint64(data[8:16]); first != wantFirst {
		return 0, 0, fmt.Errorf("header names first index %d, file name says %d", first, wantFirst)
	}
	off := int64(segHeaderLen)
	for {
		frame := data[off:]
		if len(frame) < frameHeader {
			return count, off, nil
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		if n == 0 || n > maxFrame || int64(len(frame)) < frameHeader+int64(n) {
			return count, off, nil
		}
		payload := frame[frameHeader : frameHeader+int64(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
			return count, off, nil
		}
		if _, derr := decodeBatch(payload); derr != nil {
			return count, off, nil
		}
		off += frameHeader + int64(n)
		count++
	}
}

// writeSegmentHeader (re)initialises a segment file to an empty segment
// starting at first.
func writeSegmentHeader(path string, first uint64) error {
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], first)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	return f.Close()
}

// segPath names the segment whose first batch index is first.
func (l *Log) segPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", first))
}

// openActive opens (creating if absent) the final segment for appends.
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		path := l.segPath(l.next)
		if err := writeSegmentHeader(path, l.next); err != nil {
			return err
		}
		l.segs = append(l.segs, segment{path: path, first: l.next, size: segHeaderLen})
	}
	tail := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(tail.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return nil
}

// rotate closes the active segment and starts a fresh one at l.next.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	path := l.segPath(l.next)
	if err := writeSegmentHeader(path, l.next); err != nil {
		return err
	}
	l.segs = append(l.segs, segment{path: path, first: l.next, size: segHeaderLen})
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(segHeaderLen, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	obs.Count(l.sink, "wal.segment.rotations", 1)
	return nil
}

// hook fires the fault hook at one crash point; a non-nil return marks
// the log dead, standing in for the process dying at that instant.
func (l *Log) hook(p CrashPoint, idx uint64) error {
	if l.opts.Hook == nil {
		return nil
	}
	if err := l.opts.Hook(p, idx); err != nil {
		l.dead = true
		return fmt.Errorf("%w at point %d, batch %d: %v", ErrCrashed, p, idx, err)
	}
	return nil
}

// Append frames, writes, and (per the sync policy) fsyncs one batch,
// returning the batch's log index. The batch is durable — and will be
// recovered — exactly when Append returns nil under SyncAlways; under
// the laxer policies it is recovered unless the crash beats the next
// sync. Append must succeed before the batch is applied to any
// in-memory state: WAL-then-apply is the serving layer's ordering.
func (l *Log) Append(b Batch) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.dead {
		return 0, ErrClosed
	}
	idx := l.next
	payload := encodeBatch(nil, b)
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)

	tail := &l.segs[len(l.segs)-1]
	if tail.size > segHeaderLen && tail.size+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
		tail = &l.segs[len(l.segs)-1]
	}
	if err := l.hook(CrashBeforeFrame, idx); err != nil {
		return 0, err
	}
	if err := l.hook(CrashMidFrame, idx); err != nil {
		// Torn write: half the frame reaches the file, then the
		// "process" dies. Recovery must drop it.
		l.f.Write(frame[:len(frame)/2])
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.dead = true
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	tail.size += int64(len(frame))
	tail.count++
	l.next++
	obs.Count(l.sink, "wal.append.batches", 1)
	obs.Count(l.sink, "wal.append.records", int64(len(b)))
	obs.Count(l.sink, "wal.append.bytes", int64(len(frame)))
	l.openGauges()
	if err := l.hook(CrashAfterFrame, idx); err != nil {
		return 0, err
	}
	if l.opts.Sync == SyncAlways {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.dead = true
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		obs.Count(l.sink, "wal.fsyncs", 1)
		obs.ObserveSince(l.sink, "wal.fsync", start)
	}
	if err := l.hook(CrashAfterSync, idx); err != nil {
		return 0, err
	}
	return idx, nil
}

// Replay streams every complete batch with index >= from, in order,
// into fn; segments wholly behind from are skipped without reading
// their frames. fn returning an error aborts the replay with it.
// Replay reads the state Open validated, so it cannot encounter new
// corruption; it is safe before, between, and after Appends.
func (l *Log) Replay(from uint64, fn func(idx uint64, b Batch) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	sink := l.sink
	l.mu.Unlock()
	var batches, recs int64
	for _, seg := range segs {
		if seg.first+seg.count <= from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if int64(len(data)) > seg.size {
			data = data[:seg.size]
		}
		off := int64(segHeaderLen)
		for i := uint64(0); i < seg.count; i++ {
			n := binary.LittleEndian.Uint32(data[off : off+4])
			payload := data[off+frameHeader : off+frameHeader+int64(n)]
			off += frameHeader + int64(n)
			idx := seg.first + i
			if idx < from {
				continue
			}
			b, err := decodeBatch(payload)
			if err != nil {
				return fmt.Errorf("%w: batch %d: %v", ErrCorrupt, idx, err)
			}
			if err := fn(idx, b); err != nil {
				return err
			}
			batches++
			recs += int64(len(b))
		}
	}
	obs.Count(sink, "wal.replay.batches", batches)
	obs.Count(sink, "wal.replay.records", recs)
	return nil
}

// syncLoop is the SyncInterval background fsync ticker.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && !l.dead {
				start := time.Now()
				if l.f.Sync() == nil {
					obs.Count(l.sink, "wal.fsyncs", 1)
					obs.ObserveSince(l.sink, "wal.fsync", start)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs (unless the log crashed) and closes the active segment.
// Further operations fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.syncWG.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if !l.dead {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// encodeBatch appends the flat batch encoding to buf: record count,
// then per record the weight bits (u64le), truth, and values (strings
// as uvarint length + bytes).
func encodeBatch(buf []byte, b Batch) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	for _, r := range b {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], floatBits(r.Weight))
		buf = append(buf, w[:]...)
		buf = appendString(buf, r.Truth)
		buf = binary.AppendUvarint(buf, uint64(len(r.Values)))
		for _, v := range r.Values {
			buf = appendString(buf, v)
		}
	}
	return buf
}

// decodeBatch is the strict inverse of encodeBatch: every length is
// bounds-checked against the remaining payload and the payload must be
// consumed exactly, so bit flips surface as errors, never as panics or
// silent garbage.
func decodeBatch(data []byte) (Batch, error) {
	n, off, err := readUvarint(data, 0)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) { // each record needs >= 1 byte
		return nil, fmt.Errorf("record count %d exceeds payload", n)
	}
	b := make(Batch, 0, n)
	for i := uint64(0); i < n; i++ {
		if off+8 > len(data) {
			return nil, fmt.Errorf("record %d: truncated weight", i)
		}
		w := bitsFloat(binary.LittleEndian.Uint64(data[off : off+8]))
		off += 8
		var truth string
		truth, off, err = readString(data, off)
		if err != nil {
			return nil, fmt.Errorf("record %d: truth: %w", i, err)
		}
		var nv uint64
		nv, off, err = readUvarint(data, off)
		if err != nil {
			return nil, fmt.Errorf("record %d: value count: %w", i, err)
		}
		if nv > uint64(len(data)-off) {
			return nil, fmt.Errorf("record %d: value count %d exceeds payload", i, nv)
		}
		values := make([]string, nv)
		for j := range values {
			values[j], off, err = readString(data, off)
			if err != nil {
				return nil, fmt.Errorf("record %d value %d: %w", i, j, err)
			}
		}
		b = append(b, Record{Weight: w, Truth: truth, Values: values})
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes", len(data)-off)
	}
	return b, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString decodes one length-prefixed string at off.
func readString(data []byte, off int) (string, int, error) {
	n, off, err := readUvarint(data, off)
	if err != nil {
		return "", 0, err
	}
	if n > uint64(len(data)-off) {
		return "", 0, fmt.Errorf("string length %d exceeds payload", n)
	}
	return string(data[off : off+int(n)]), off + int(n), nil
}

// readUvarint decodes one uvarint at off with explicit bounds errors.
func readUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad uvarint at offset %d", off)
	}
	return v, off + n, nil
}
