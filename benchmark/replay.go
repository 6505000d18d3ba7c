package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	topk "topkdedup"
	"topkdedup/internal/obs"
	"topkdedup/internal/server"
	"topkdedup/internal/stream"
	"topkdedup/internal/wal"
)

// checkpointEvery is the server's default WALSnapshotEvery: the replay
// checkpoints after the same number of batches.
const checkpointEvery = 256

// queryStride thins the replayed query ops: the replay is single-threaded
// where the measured run had two clients on two cores, so replaying every
// other query keeps the traced run no longer than the untraced one. Every
// ingest is replayed, so the state at each op is the measured run's.
const queryStride = 2

// replayStats is what a replay measures beside its spans.
type replayStats struct {
	wallS float64
	// Per ingest batch: Add time per record and predicate evaluations per
	// record, with the sketch attached; addPlainS is the same records
	// added to an accumulator without a sketch.
	addUS, addEvals           []float64
	addSketchS, addPlainS     float64
	collapseS, boundS, pruneS []float64 // per replayed miss, from LevelStats
	scoredPairs               int64
	misses                    int
	walReplayS                float64
	failures                  []string
}

// answerKey identifies a memoisable query within an epoch, like the
// server's answer cache.
type answerKey struct {
	kind opKind
	k, r int
}

// replay runs one episode's op sequence single-threaded, straight against
// the public functions of the layers the server composes, with a span
// around each call (tr may be nil: the untraced side of
// trace.overhead_share). opBase offsets the op ids so that several
// replays can share one tracer.
func (w *serveWorkload) replay(sz sizes, ds *dataset, ops []op, workdir string, tr *tracer, opBase, offset int) (*replayStats, error) {
	st := &replayStats{}
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sink := obs.NewCollector()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Sink: sink})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	acc, err := stream.New(ds.d.Name, ds.d.Schema, ds.levels)
	if err != nil {
		return nil, err
	}
	acc.SetMetrics(sink)
	acc.EnableSketch(0)
	plain, err := stream.New(ds.d.Name, ds.d.Schema, ds.levels)
	if err != nil {
		return nil, err
	}
	plain.SetMetrics(obs.NewCollector())

	// What Server.Seed does, untraced: it is set-up, not the sequence.
	seed := walBatch(ds.ingestRecords(0, w.seeded(sz)))
	for i := range seed {
		seed[i].Weight = ds.d.Recs[i].Weight
	}
	if _, err := log.Append(seed); err != nil {
		return nil, err
	}
	for _, r := range seed {
		acc.Add(r.Weight, r.Truth, r.Values...)
		plain.Add(r.Weight, r.Truth, r.Values...)
	}
	acc.FlushSketchMetrics()
	snap := acc.Snapshot()
	engineSink := obs.NewCollector()
	engine := func() *topk.Engine {
		return topk.New(snap.Dataset(), ds.levels, ds.scorer, topk.Config{Metrics: engineSink})
	}

	ctx := context.Background()
	cache := map[answerKey]any{} // nil value: answered, but not by this replay
	batches, epoch, want := 0, uint64(0), len(seed)
	start := time.Now()
	for i := range ops {
		o, id := &ops[i], opBase+i
		replayed := i%queryStride == offset
		switch o.kind {
		case opIngest:
			root := tr.start("server.ingest", id)
			sp := tr.start("server.decode", id)
			var req server.IngestRequest
			err := json.Unmarshal(o.body, &req)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			batch := walBatch(req.Records)
			sp = tr.start("wal.append", id)
			_, err = log.Append(batch)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			evals, addStart := acc.Evals(), time.Now()
			sp = tr.start("stream.add", id)
			for _, r := range batch {
				acc.Add(r.Weight, r.Truth, r.Values...)
			}
			tr.end(sp)
			addS := time.Since(addStart).Seconds()
			acc.FlushSketchMetrics()
			sp = tr.start("stream.snapshot", id)
			snap = acc.Snapshot()
			tr.end(sp)
			epoch++
			clear(cache)
			if batches++; batches%checkpointEvery == 0 {
				sp = tr.start("wal.checkpoint", id)
				applied := log.NextIndex()
				err := log.WriteSnapshot(applied, walBatch(snapshotRecords(ds, snap)))
				if err == nil {
					err = log.PruneSegments(applied)
				}
				tr.end(sp)
				if err != nil {
					return nil, err
				}
			}
			tr.end(root)

			// Outside the op's span: the same records into the accumulator
			// without a sketch, for sketch.add_overhead_share.
			plainStart := time.Now()
			for _, r := range batch {
				plain.Add(r.Weight, r.Truth, r.Values...)
			}
			st.addPlainS += time.Since(plainStart).Seconds()
			st.addSketchS += addS
			n := float64(len(batch))
			st.addUS = append(st.addUS, addS*1e6/n)
			st.addEvals = append(st.addEvals, float64(acc.Evals()-evals)/n)
			want += len(batch)

		case opTopK, opRank:
			key := answerKey{o.kind, o.k, o.r}
			if cached, hit := cache[key]; hit {
				if cached != nil && replayed {
					sp := tr.start("server.encode", id)
					_, err := json.Marshal(cached)
					tr.end(sp)
					if err != nil {
						return nil, err
					}
				}
				continue
			}
			cache[key] = nil
			if !replayed {
				continue
			}
			root := tr.start("server.query_miss", id)
			sp := tr.start("stream.topk", id)
			pd, err := snap.TopKCtx(ctx, o.k, 0, nil)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			var resp any
			if o.kind == opTopK {
				sp = tr.start("engine.final", id)
				res, err := engine().TopKFromCtx(ctx, pd, o.k, o.r)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				resp = server.TopKResponse{K: o.k, R: o.r, SnapshotSeq: epoch, Records: snap.Len(), Result: res}
				st.misses++
				var c, b, p time.Duration
				for _, ls := range pd.Stats {
					c, b, p = c+ls.CollapseTime, b+ls.BoundTime, p+ls.PruneTime
				}
				st.collapseS = append(st.collapseS, c.Seconds())
				st.boundS = append(st.boundS, b.Seconds())
				st.pruneS = append(st.pruneS, p.Seconds())
			} else {
				sp = tr.start("rankquery.rank", id)
				res, err := engine().TopKRankFrom(pd, o.k)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				resp = server.RankResponse{K: o.k, SnapshotSeq: epoch, Records: snap.Len(), Result: res}
			}
			sp = tr.start("server.encode", id)
			_, err = json.Marshal(resp)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			tr.end(root)
			cache[key] = resp

		case opApprox, opHybrid:
			if replayed {
				sp := tr.start("sketch.top", id)
				snap.SketchView().Top(o.k)
				tr.end(sp)
			}
			if o.kind == opHybrid {
				// The background exact compute is not replayed (its cost is
				// the exact miss's, measured above); it does fill the cache.
				if _, ok := cache[answerKey{opTopK, o.k, o.r}]; !ok {
					cache[answerKey{opTopK, o.k, o.r}] = nil
				}
			}
		}
	}
	st.wallS = time.Since(start).Seconds()
	st.scoredPairs = engineSink.CounterValue("engine.final.scored_pairs")
	if acc.Len() != want {
		st.failures = append(st.failures, fmt.Sprintf("replay holds %d records, sequence has %d", acc.Len(), want))
	}

	// The WAL's share of a restart: open, newest snapshot, replay of the
	// tail. Re-adding the records is the stream layer's share.
	if err := log.Close(); err != nil {
		return nil, err
	}
	sp := tr.start("wal.replay", opBase+len(ops))
	replayStart := time.Now()
	recovered, err := walRecover(dir)
	st.walReplayS = time.Since(replayStart).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if recovered != want {
		st.failures = append(st.failures, fmt.Sprintf("wal replay recovered %d records, %d were appended", recovered, want))
	}
	return st, nil
}

// walRecover reads a WAL directory the way a booting server does and
// returns how many records it holds.
func walRecover(dir string) (int, error) {
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	from, recs, _, err := log.LatestSnapshot()
	if err != nil {
		return 0, err
	}
	n := len(recs)
	err = log.Replay(from, func(_ uint64, b wal.Batch) error {
		n += len(b)
		return nil
	})
	return n, err
}

// walBatch converts wire records to a WAL batch the way the server does
// before logging: an omitted weight counts 1.
func walBatch(recs []server.IngestRecord) wal.Batch {
	batch := make(wal.Batch, len(recs))
	for i, r := range recs {
		batch[i] = wal.Record{Weight: weightOf(r), Truth: r.Truth, Values: r.Values}
	}
	return batch
}

// snapshotRecords flattens a snapshot's dataset for a WAL checkpoint.
func snapshotRecords(ds *dataset, snap *stream.Snapshot) []server.IngestRecord {
	out := make([]server.IngestRecord, 0, snap.Len())
	for _, r := range snap.Dataset().Recs {
		out = append(out, server.IngestRecord{Weight: r.Weight, Truth: r.Truth, Values: valuesOf(ds, r)})
	}
	return out
}

// traceServe runs the traced half of a --trace 1 run of a serve
// workload: whole replays, each once untraced and once traced on a fresh
// state, until budget seconds are used.
func (w *serveWorkload) traceServe(o options, sz sizes, budget float64, tr *tracer, a *aggregate) (traced, untraced []*replayStats, err error) {
	var used float64
	for n := 0; n == 0 || used+used/float64(n)/2 < budget; n++ {
		setPhase("replay %d", n)
		seed := episodeSeed(o.seed, n)
		e := &episode{}
		ds, srv, dir, err := w.setup(sz, seed, o.scratch, wal.SyncAlways, e)
		if err != nil {
			return nil, nil, err
		}
		srv.Close()
		os.RemoveAll(dir)
		a.setups = append(a.setups, e)
		ops := w.ops(sz, ds, rand.New(rand.NewSource(seed)))
		offset := int(seed % queryStride)
		for _, t := range []*tracer{nil, tr} {
			st, err := w.replay(sz, ds, ops, o.scratch, t, n*len(ops)*2, offset)
			if err != nil {
				return nil, nil, fmt.Errorf("%s replay %d: %w", w.name, n, err)
			}
			a.failures = append(a.failures, st.failures...)
			used += st.wallS
			if t == nil {
				untraced = append(untraced, st)
			} else {
				traced = append(traced, st)
			}
		}
	}
	return traced, untraced, nil
}
