package faulty

import (
	"errors"
	"testing"

	"topkdedup/internal/wal"
)

func TestCrashAtFiresOnce(t *testing.T) {
	hook := CrashAt(wal.CrashMidFrame, 3)
	if err := hook(wal.CrashMidFrame, 2); err != nil {
		t.Fatalf("wrong index fired: %v", err)
	}
	if err := hook(wal.CrashAfterSync, 3); err != nil {
		t.Fatalf("wrong point fired: %v", err)
	}
	if err := hook(wal.CrashMidFrame, 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching point/index must crash, got %v", err)
	}
}
