// Package wal makes ingest durable: a write-ahead log in one file whose
// append path is the serving layer's durability point (SERVING.md
// "Durability"). Every accepted /ingest batch is framed, checksummed,
// and (per the fsync policy) synced to disk before it touches the
// accumulator, so a crash at any instant loses at most the batches the
// policy had not yet synced — never a prefix gap and never a torn
// half-batch.
//
// On-disk layout (one directory per log):
//
//	wal-0000000000000000.log   16-byte header (magic + first batch
//	                           index, always 0), then length-prefixed
//	                           CRC32C-framed batch records
//
// A frame is `len u32le | crc32c u32le | payload`; the payload is the
// flat batch encoding of encodeBatch. A frame is the atomicity unit:
// replay accepts a frame only when its length and checksum verify and
// its payload decodes. Open tells a crash from damage at the first frame
// that does not verify: it truncates that frame and what follows only
// when nothing complete can follow it (see validPrefix); anything else
// is data loss, not a crash artifact, and surfaces as ErrCorrupt with
// the directory left untouched.
//
// The log is the state: the file is the only durable format, and boot
// recovery is Replay(0, …) re-applying every batch in order — linear in
// the records ever accepted (SERVING.md has the measured cost). The Hook
// seam exists for the deterministic crash-point tests (CrashAt) —
// production logs leave it nil.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

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

// SyncPolicy selects whether Append fsyncs the log file. Open rejects
// any other value. SyncNever was 2 while a background-ticker policy sat
// between the two and is 1 now; nothing persists a policy.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a 200 OK on /ingest means
	// the batch is on stable storage. The default and the only policy
	// under which the crash-recovery tests may assume zero loss.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves syncing to the OS page cache: a crash of the
	// machine may lose the batches the OS had not yet written back, and
	// may leave a log Open refuses with ErrCorrupt.
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

// Options configures Open. The zero value selects SyncAlways and no
// hook.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
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
	// ErrCorrupt reports damage no crash can leave — a garbled header, a
	// frame that does not verify with more than zero bytes after it, a
	// verified frame that does not decode, or a second log file — which
	// recovery must refuse rather than silently drop acknowledged
	// batches.
	ErrCorrupt = errors.New("wal: corrupt log")
)

const (
	// logName is the log's one file. The name and header keep the
	// first-batch index of the segmented format this file descends from,
	// which is always 0, so logs it wrote open unchanged.
	logName     = "wal-0000000000000000.log"
	logMagic    = "TKWALSG1"
	headerLen   = 16 // magic + first-index u64le
	frameHeader = 8  // len u32le + crc u32le
	// tmpSuffix names the file Open writes the header under before
	// renaming it into place.
	tmpSuffix = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. Append/Close are safe
// for concurrent use; replay helpers are read-only over closed state.
type Log struct {
	path string
	opts Options

	mu     sync.Mutex
	f      *os.File
	size   int64  // valid bytes: header + complete frames
	next   uint64 // index the next Append receives
	dead   bool   // crashed via hook: all further ops fail
	closed bool
	sink   obs.Sink
}

// Open scans dir (creating it and the log if needed), verifies every
// frame, truncates a torn tail, and returns a log positioned to append.
// Damage a crash cannot explain fails with ErrCorrupt and changes
// nothing on disk, rather than silently dropping acknowledged batches.
// A Sync policy other than SyncAlways or SyncNever is an error.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Sync != SyncAlways && opts.Sync != SyncNever {
		return nil, fmt.Errorf("wal: unknown sync policy %d", opts.Sync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{path: filepath.Join(dir, logName), opts: opts, sink: opts.Sink}
	if err := l.scan(dir); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(l.size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	obs.Gauge(l.sink, "wal.open.bytes", float64(l.size))
	return l, nil
}

// NextIndex returns the index the next Append will be assigned — equal
// to the number of complete batches the log has ever accepted.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// scan refuses a directory holding a second log file, creates the log
// when it is absent, and otherwise verifies it, truncates its torn tail
// and removes a temporary file a crashed creation left behind.
func (l *Log) scan(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); name != logName && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			// A binary that rotated segments past 64 MiB left it. The log
			// is the only copy of the data, so a multi-file directory is
			// refused whole, never recovered from one of its files.
			return fmt.Errorf("%w: %s beside %s", ErrCorrupt, name, logName)
		}
	}
	data, err := os.ReadFile(l.path)
	if errors.Is(err, fs.ErrNotExist) {
		l.size = headerLen
		return create(l.path)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.next, l.size, err = validPrefix(data); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, l.path, err)
	}
	if torn := int64(len(data)) - l.size; torn > 0 {
		// Drop the torn tail so appends never interleave with garbage.
		if err := os.Truncate(l.path, l.size); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		obs.Count(l.sink, "wal.replay.truncated_bytes", torn)
	}
	if err := os.Remove(l.path + tmpSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// validPrefix walks a log file's frames and returns how many are
// complete and the byte length of that valid prefix. At the first frame
// that does not verify it stops without error only when nothing complete
// can follow that frame — its header is incomplete, its declared length
// runs past the end of the file, it ends exactly at the end of the file,
// or only zero bytes follow it — which is every shape a crash mid-append
// or a power loss after the last fsync leaves. Anything else, and a
// frame whose checksum verifies but whose payload does not decode, is an
// error.
func validPrefix(data []byte) (count uint64, size int64, err error) {
	if len(data) < headerLen || string(data[:8]) != logMagic {
		return 0, 0, errors.New("bad header")
	}
	if first := binary.LittleEndian.Uint64(data[8:16]); first != 0 {
		return 0, 0, fmt.Errorf("header names first batch %d, want 0", first)
	}
	off := int64(headerLen)
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return count, off, nil
		}
		end := frameHeader + int64(binary.LittleEndian.Uint32(rest[:4]))
		if end > int64(len(rest)) {
			return count, off, nil
		}
		payload := rest[frameHeader:end]
		if len(payload) == 0 || crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			if allZero(rest[end:]) {
				return count, off, nil
			}
			return count, off, fmt.Errorf("batch %d at offset %d does not verify and %d bytes follow it", count, off, int64(len(rest))-end)
		}
		if _, derr := decodeBatch(payload); derr != nil {
			return count, off, fmt.Errorf("batch %d at offset %d: checksum verifies, payload does not decode: %v", count, off, derr)
		}
		off += end
		count++
	}
}

// allZero reports whether b holds only zero bytes (true when empty).
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// create makes an empty log durably and atomically: the header is
// written and fsynced under a temporary name, renamed into place, and
// the directory fsynced. The log file therefore never exists without its
// header, and an acknowledged first batch never loses its directory
// entry to a power loss.
func create(path string) error {
	var hdr [headerLen]byte
	copy(hdr[:8], logMagic)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("wal: create log: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
// SyncNever it is recovered unless the crash beats the OS's write-back.
// Append must succeed before the batch is applied to any
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
	l.size += int64(len(frame))
	l.next++
	obs.Count(l.sink, "wal.append.batches", 1)
	obs.Count(l.sink, "wal.append.records", int64(len(b)))
	obs.Count(l.sink, "wal.append.bytes", int64(len(frame)))
	obs.Gauge(l.sink, "wal.open.bytes", float64(l.size))
	if err := l.hook(CrashAfterFrame, idx); err != nil {
		return 0, err
	}
	if l.opts.Sync == SyncAlways {
		_, ph := obs.Start(context.Background(), l.sink, "wal.fsync")
		if err := l.f.Sync(); err != nil {
			l.dead = true
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		ph.End()
		obs.Count(l.sink, "wal.fsyncs", 1)
	}
	if err := l.hook(CrashAfterSync, idx); err != nil {
		return 0, err
	}
	return idx, nil
}

// Replay streams every complete batch with index >= from, in order,
// into fn. fn returning an error aborts the replay with it. Replay reads
// the frames Open verified and Append wrote, so it cannot encounter new
// corruption unless the file is changed behind the log's back; it is
// safe before, between, and after Appends.
func (l *Log) Replay(from uint64, fn func(idx uint64, b Batch) error) error {
	l.mu.Lock()
	size, count, sink := l.size, l.next, l.sink
	l.mu.Unlock()
	data, err := os.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if int64(len(data)) < size {
		return fmt.Errorf("%w: %s holds %d bytes, %d were written", ErrCorrupt, l.path, len(data), size)
	}
	var batches, recs int64
	off := int64(headerLen)
	for idx := uint64(0); idx < count; idx++ {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		payload := data[off+frameHeader : off+frameHeader+n]
		off += frameHeader + n
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
	obs.Count(sink, "wal.replay.batches", batches)
	obs.Count(sink, "wal.replay.records", recs)
	return nil
}

// Close syncs (unless the log crashed) and closes the log file.
// Further operations fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
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
