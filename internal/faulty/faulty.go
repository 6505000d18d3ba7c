// Package faulty makes failures reproducible: crash hooks for the wal
// writer that fire at exactly one (crash point, batch index) pair, so a
// failing crash schedule replays from its two numbers alone. The WAL
// crash-recovery tests are built on this package; production code never
// imports it.
package faulty

import (
	"errors"
	"fmt"

	"topkdedup/internal/wal"
)

// ErrInjected is the base error of every injected fault; tests can
// errors.Is against it to tell injected failures from real ones.
var ErrInjected = errors.New("faulty: injected fault")

// CrashAt returns a wal.Hook that simulates a process crash at exactly
// one (crash point, batch index) pair — the building block of the
// exhaustive crash-point sweep in the WAL recovery tests.
func CrashAt(point wal.CrashPoint, index uint64) wal.Hook {
	return func(p wal.CrashPoint, idx uint64) error {
		if p == point && idx == index {
			return fmt.Errorf("%w: wal crash at point %d, batch %d", ErrInjected, point, index)
		}
		return nil
	}
}
