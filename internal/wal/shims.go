package wal

// The log file is the only durable format: the accumulator is a
// pure function of the record sequence, so a state snapshot would hold
// exactly the records the log already holds, and boot re-Adds every one
// of them either way. The frozen benchmark harness (benchmark/replay.go)
// still calls the three methods of the deleted snapshot tier, so they
// stay, with their signatures, as do-nothing shims; nothing under
// internal/ or cmd/ calls them.

// WriteSnapshot writes nothing and returns nil.
func (l *Log) WriteSnapshot(applied uint64, recs []Record) error { return nil }

// LatestSnapshot reports that there is no snapshot (ok is false), so
// the caller replays the log from batch 0.
func (l *Log) LatestSnapshot() (applied uint64, recs []Record, ok bool, err error) {
	return 0, nil, false, nil
}

// PruneSegments removes nothing and returns nil: the log is one file
// that always starts at batch 0, and there is nothing else to remove.
func (l *Log) PruneSegments(applied uint64) error { return nil }
