package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to Open/Replay as the contents of
// the log file. The contract under fuzzing: recovery either fails with a
// clean typed error or yields a consistent prefix — a sequence of
// batches that decode, replay in index order, and survive a second Open
// byte-identically — and it never panics. A garbled header and damage
// before the last frame (a frame that does not verify with non-zero
// bytes after it, or a verified frame that does not decode) may be
// ErrCorrupt; a torn or zero-filled tail must recover the prefix.
func FuzzWALReplay(f *testing.F) {
	// Seeds: an empty file, a bare header, a header plus garbage, and
	// genuine logs produced by the real writer.
	f.Add([]byte{})
	f.Add([]byte(logMagic + "\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(logMagic + "\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"))
	f.Add(validLog(f, 1))
	f.Add(validLog(f, 3))
	if flipped := validLog(f, 3); len(flipped) > headerLen+4 {
		// Bit-flip inside the first frame.
		flipped[headerLen+3] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open returned untyped error: %v", err)
			}
			return
		}
		var got []Batch
		next := uint64(0)
		if err := l.Replay(0, func(idx uint64, b Batch) error {
			if idx != next {
				t.Fatalf("replay out of order: idx %d, want %d", idx, next)
			}
			next++
			got = append(got, b)
			return nil
		}); err != nil {
			t.Fatalf("Replay over Open-validated state failed: %v", err)
		}
		if l.NextIndex() != next {
			t.Fatalf("NextIndex %d but replay yielded %d batches", l.NextIndex(), next)
		}
		l.Close()

		// Idempotence: recovery already truncated the damage, so a
		// second Open must see exactly the same prefix.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open failed after first succeeded: %v", err)
		}
		defer l2.Close()
		var again []Batch
		if err := l2.Replay(0, func(_ uint64, b Batch) error {
			again = append(again, b)
			return nil
		}); err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("recovery not idempotent: %d batches then %d", len(got), len(again))
		}
	})
}

// validLog builds a real n-batch log via the writer and returns its raw
// bytes.
func validLog(f *testing.F, n int) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Batch{{Weight: float64(i + 1), Truth: "t", Values: []string{"seed", "v"}}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
