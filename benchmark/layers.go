package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
)

// perLayer runs the traced half of a --trace 1 run and fills in every
// per-layer metric: the client-observed class latencies and the program's
// own counters from the untraced episodes already in a, the layer times
// from the spans of the traced replay. A metric a workload has no samples
// for stays 0.
func (a *aggregate) perLayer(o options, sz sizes, budget float64, m measured, progress io.Writer) error {
	tr := newTracer()
	var err error
	if o.workload == "batch_citations" {
		err = a.batchLayers(o, sz, tr, m, progress)
	} else {
		err = a.serveLayers(o, sz, budget, tr, m, progress)
	}
	if err != nil {
		return err
	}
	a.commonLayers(m)
	path := filepath.Join(o.workdir, "trace_"+o.workload+".json")
	if err := tr.write(path, o.workload, o.seed); err != nil {
		return err
	}
	fmt.Fprintf(progress, "benchmark: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// commonLayers are the per-layer metrics every workload reports: the
// client-observed op classes, the set-up split, and the runtime.
func (a *aggregate) commonLayers(m measured) {
	ms := func(class string, q float64) float64 { return quantile(a.pooled(class), q) }
	m["batch_round_s"] = ms("round", 0.5) / 1e3
	m["ingest_p50_ms"] = ms("ingest", 0.5)
	m["ingest_p99_ms"] = ms("ingest", 0.99)
	m["topk_exact_miss_p50_ms"] = ms("exact_miss", 0.5)
	m["topk_exact_miss_p95_ms"] = ms("exact_miss", 0.95)
	m["topk_exact_hit_p50_ms"] = ms("exact_hit", 0.5)
	m["rank_miss_p50_ms"] = ms("rank_miss", 0.5)
	m["topk_approx_p50_ms"] = ms("approx", 0.5)
	m["topk_hybrid_p50_ms"] = ms("hybrid", 0.5)
	for _, class := range []string{"ingest", "exact_miss", "exact_hit", "rank_miss", "approx", "hybrid"} {
		m["samples."+class] = float64(len(a.pooled(class)))
	}
	m["approx_recall_at_10"] = median(each(a.episodes, func(e *episode) float64 { return e.recall }))
	m["recovery_s"] = median(each(a.episodes, func(e *episode) float64 { return e.recoveryS }))
	m["failed_ops_share"] = ratio(float64(a.failed), float64(a.ops))
	m["server.eval_delta"] = sum(each(a.episodes, func(e *episode) float64 { return e.evalDelta }))

	setups := append(append([]*episode(nil), a.episodes...), a.setups...)
	split := func(f func(*episode) float64) float64 { return median(each(setups, f)) }
	m["datagen.generate_s"] = split(func(e *episode) float64 { return e.genS })
	m["classifier.train_s"] = split(func(e *episode) float64 { return e.trainS })
	m["server.seed_s"] = split(func(e *episode) float64 { return e.seedS })

	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	m["runtime.gc_cpu_fraction"] = ms2.GCCPUFraction
	m["host.probe_ms"] = 1e3 * median(each(a.episodes, func(e *episode) float64 { return e.probeWallS }))
	m["host.probe_cpu_ms"] = 1e3 * median(each(a.episodes, func(e *episode) float64 { return e.probeCPUS }))
	m["runtime.num_cpu"] = float64(runtime.NumCPU())
	m["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// batchLayers traces one batch episode and reports the engine, core,
// parallel and shard layers. The phases of a walked query must add up to
// Engine.TopK's wall time; the gap is printed, not hidden.
func (a *aggregate) batchLayers(o options, sz sizes, tr *tracer, m measured, progress io.Writer) error {
	setPhase("traced batch episode")
	e := &episode{}
	bt, err := traceBatch(sz, episodeSeed(o.seed, 0), tr, e)
	if err != nil {
		return err
	}
	a.setups = append(a.setups, e)
	a.failures = append(a.failures, bt.failures...)

	m["engine.cold_round_s"] = bt.coldS
	var engineS float64
	for _, k := range batchKs {
		m[fmt.Sprintf("engine.topk.k%d_s", k)] = median(bt.engineS[k])
		engineS += sum(bt.engineS[k])
	}
	collapse, bound, prune, final := tr.selfPerOp("core.collapse"), tr.selfPerOp("core.bound"), tr.selfPerOp("core.prune"), tr.selfPerOp("engine.final")
	m["core.collapse_s"] = median(collapse)
	m["core.bound_s"] = median(bound)
	m["core.prune_s"] = median(prune)
	m["engine.final_s"] = median(final)
	phases := sum(collapse) + sum(bound) + sum(prune) + sum(final)
	m["core.prune_share"] = ratio(sum(prune), phases)
	// Exact counts: the first round's, which repeat exactly per seed.
	m["core.pair_evals"] = bt.pairEvals[0]
	m["engine.final.scored_pairs"] = bt.scoredPairs[0]
	m["core.survivors_k10"] = bt.survivorsK10
	m["core.m_k10"] = bt.mK10
	m["parallel.speedup_k10"] = bt.speedupK10
	m["parallel.busy_share"] = bt.busyShare
	m["shard.run_s"] = bt.shardRunS
	m["shard.transport_calls"] = bt.transportCalls

	gap := ratio(phases-engineS, engineS)
	m["engine.reconcile_gap_share"] = gap
	m["trace.overhead_share"] = ratio(bt.walkedS-engineS, engineS)
	verdict := "reconciles"
	if gap > 0.10 || gap < -0.10 {
		verdict = "DOES NOT RECONCILE (over 10%)"
	}
	fmt.Fprintf(progress, "benchmark: collapse+bound+prune+final %.3fs vs Engine.TopK %.3fs: gap %+.1f%%, %s\n",
		phases, engineS, 100*gap, verdict)
	return nil
}

// serveLayers replays the op sequence traced and reports the server,
// wal, stream, inc, engine, rankquery and sketch layers. What the layer
// medians leave of the client-observed median is reported as the
// unattributed rows: HTTP, the slot pool, lock wait, cache bookkeeping.
func (a *aggregate) serveLayers(o options, sz sizes, budget float64, tr *tracer, m measured, progress io.Writer) error {
	w := serveWorkloads[o.workload]
	traced, untraced, err := w.traceServe(o, sz, budget, tr, a)
	if err != nil {
		return err
	}
	msOf := func(name string, q float64) float64 { return 1e3 * quantile(tr.self(name), q) }
	m["server.decode_ms"] = msOf("server.decode", 0.5)
	m["wal.append_ms"] = msOf("wal.append", 0.5)
	m["wal.append_p99_ms"] = msOf("wal.append", 0.99)
	m["wal.checkpoint_ms"] = msOf("wal.checkpoint", 0.5)
	m["stream.snapshot_ms"] = msOf("stream.snapshot", 0.5)
	m["stream.topk_ms"] = msOf("stream.topk", 0.5)
	m["engine.final_ms"] = msOf("engine.final", 0.5)
	m["rankquery.rank_ms"] = msOf("rankquery.rank", 0.5)
	m["server.encode_ms"] = msOf("server.encode", 0.5)
	m["sketch.top_us"] = 1e3 * msOf("sketch.top", 0.5)

	var addUS, addEvals, collapse, bound, prune, walReplay []float64
	var tracedS, untracedS, sketchS, plainS float64
	for _, st := range traced {
		addUS = append(addUS, st.addUS...)
		addEvals = append(addEvals, st.addEvals...)
		collapse, bound, prune = append(collapse, st.collapseS...), append(bound, st.boundS...), append(prune, st.pruneS...)
		walReplay = append(walReplay, st.walReplayS)
		tracedS += st.wallS
		sketchS, plainS = sketchS+st.addSketchS, plainS+st.addPlainS
	}
	for _, st := range untraced {
		untracedS += st.wallS
	}
	m["stream.add_us_per_record"] = median(addUS)
	m["stream.add_evals_per_record"] = ratio(sum(addEvals), float64(len(addEvals)))
	m["sketch.add_overhead_share"] = ratio(sketchS-plainS, sketchS)
	m["core.collapse_s"] = median(collapse)
	m["core.bound_s"] = median(bound)
	m["core.prune_s"] = median(prune)
	// An exact count: per replayed miss of the first replay, whose
	// sequence the seed alone decides.
	m["engine.final.scored_pairs"] = ratio(float64(traced[0].scoredPairs), float64(traced[0].misses))
	m["wal.replay_s"] = median(walReplay)
	m["trace.overhead_share"] = ratio(tracedS-untracedS, untracedS)

	// The program's own counters, from the untraced episodes. The exact
	// counts come from the first episode, so that they repeat per seed.
	first := a.episodes[0].counters
	m["wal.fsyncs_per_batch"] = ratio(float64(first["wal.fsyncs"]), float64(first["wal.append.batches"]))
	m["wal.bytes_per_record"] = ratio(float64(first["wal.append.bytes"]), float64(first["wal.append.records"]))
	total := func(name string) float64 {
		return sum(each(a.episodes, func(e *episode) float64 { return float64(e.counters[name]) }))
	}
	rebuilt, reused := total("inc.delta.rebuilt_groups"), total("inc.delta.reused_groups")
	m["inc.rebuilt_groups_share"] = ratio(rebuilt, rebuilt+reused)
	reusedRanks, scanned := total("inc.bound.reused_ranks"), total("inc.bound.scanned_ranks")
	m["inc.bound_reuse_share"] = ratio(reusedRanks, reusedRanks+scanned)
	hits := total("inc.cache.hit")
	m["server.cache.hit_share"] = ratio(hits, hits+total("inc.cache.miss")+total("inc.cache.coalesced")+total("inc.cache.bypass"))
	m["server.throttled"] = total("server.http.throttled")
	m["sketch.evictions"] = total("sketch.evictions")
	m["sketch.hybrid.refreshed"] = total("sketch.hybrid.refreshed")
	var maxErr []float64
	for _, e := range a.episodes {
		maxErr = append(maxErr, e.maxErr...)
	}
	m["sketch.max_err_mean"] = ratio(sum(maxErr), float64(len(maxErr)))

	ingest := quantile(a.pooled("ingest"), 0.5)
	m["server.ingest.unattributed_ms"] = ingest - m["server.decode_ms"] - m["wal.append_ms"] -
		1e3*median(tr.self("stream.add")) - m["stream.snapshot_ms"]
	miss := quantile(a.pooled("exact_miss"), 0.5)
	m["server.topk_miss.unattributed_ms"] = miss - m["stream.topk_ms"] - m["engine.final_ms"] - m["server.encode_ms"]
	for _, row := range []struct {
		name      string
		endToEnd  float64
		remainder float64
	}{
		{"ingest", ingest, m["server.ingest.unattributed_ms"]},
		{"topk miss", miss, m["server.topk_miss.unattributed_ms"]},
	} {
		if row.endToEnd == 0 {
			continue
		}
		note := ""
		if row.remainder > 0.30*row.endToEnd {
			note = " — over 30%: an unmeasured layer"
		}
		fmt.Fprintf(progress, "benchmark: %s p50 %.3fms end to end, %.3fms not attributed to a layer%s\n",
			row.name, row.endToEnd, row.remainder, note)
	}
	return nil
}
