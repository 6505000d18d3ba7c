// Durability wiring: the server side of internal/wal. New opens the
// log, rebuilds the accumulator by replaying it from batch 0 (the log
// is the state), and handleIngest/Seed append every accepted batch
// BEFORE it is applied (WAL-then-apply), so a crash at any instant
// recovers to a state byte-identical to an uninterrupted run — the
// crash-recovery property tests pin exactly that. See SERVING.md
// "Durability".
package server

import (
	topk "topkdedup"
	"topkdedup/internal/wal"
)

// openWAL opens Config.WALDir, replays every logged batch into the
// accumulator, and leaves the log open for the ingest path — boot cost
// is linear in the records ever accepted (SERVING.md "Durability" has
// the measured figure). No-op when durability is disabled. Called from
// New before the initial epoch is published, so recovered records are
// queryable immediately.
func (s *Server) openWAL() error {
	if s.cfg.WALDir == "" {
		return nil
	}
	opts := s.cfg.WALOptions
	opts.Sink = s.metrics
	l, err := wal.Open(s.cfg.WALDir, opts)
	if err != nil {
		return err
	}
	if err := l.Replay(0, func(_ uint64, b wal.Batch) error {
		s.apply(b)
		s.recovered += len(b)
		return nil
	}); err != nil {
		l.Close()
		return err
	}
	s.wal = l
	return nil
}

// Recovered reports how many records boot recovery replayed from the
// WAL. Zero when durability is disabled or the log was empty. cmd/topkd
// uses it to skip file seeding after a restart.
func (s *Server) Recovered() int { return s.recovered }

// Close releases the server's durable resources: it stops the runtime
// sampler ticker, drains hybrid mode's background exact computations,
// then closes the WAL file and its background sync ticker. Safe when
// durability is disabled, and safe to call more than once (later calls
// re-close the WAL and report its error).
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.rtStop) })
	s.bg.Wait()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// walRecords flattens a dataset into WAL records, in insertion order —
// Seed's one batch. Replaying them re-Adds exactly the original
// sequence, which is what makes recovery byte-identical.
func walRecords(d *topk.Dataset, schema []string) wal.Batch {
	recs := make(wal.Batch, len(d.Recs))
	for i, r := range d.Recs {
		values := make([]string, len(schema))
		for j, f := range schema {
			values[j] = r.Fields[f]
		}
		recs[i] = wal.Record{Weight: r.Weight, Truth: r.Truth, Values: values}
	}
	return recs
}

// walBatch converts validated ingest records into one WAL batch,
// normalising omitted weights to 1 first so the logged batch is exactly
// what the accumulator will apply (and what replay will re-apply).
func walBatch(recs []IngestRecord) wal.Batch {
	batch := make(wal.Batch, len(recs))
	for i, rec := range recs {
		wgt := rec.Weight
		if wgt == 0 {
			wgt = 1
		}
		batch[i] = wal.Record{Weight: wgt, Truth: rec.Truth, Values: rec.Values}
	}
	return batch
}
