package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	topk "topkdedup"
	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/shard"
)

// batchKs is the K sweep of one round, the low, middle and high of the
// paper's Figure 2/6 range that a 12,000-record corpus still prunes on.
var batchKs = []int{1, 10, 100}

// batchR is the number of alternative answers every batch query asks for.
const batchR = 3

// batchSetup is the timed set-up of a batch episode: citations with a
// trained scorer.
func batchSetup(sz sizes, seed int64, e *episode) (*dataset, error) {
	start := time.Now()
	ds, err := genCitations(sz.batchRecords, seed, true)
	if err != nil {
		return nil, err
	}
	e.genS, e.trainS = ds.genS, ds.trainS
	e.setupS = time.Since(start).Seconds()
	return ds, nil
}

// batchQuery answers one TopK query on a fresh engine, the way a library
// caller does, and returns the result and the wall time.
func batchQuery(ds *dataset, k int, cfg topk.Config) (*topk.Result, float64, error) {
	start := time.Now()
	res, err := topk.New(ds.d, ds.levels, ds.scorer, cfg).TopK(k, batchR)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("TopK(%d,%d): %w", k, batchR, err)
	}
	return res, wall, nil
}

// batchReference runs the untimed first round: one Workers:1 query per K.
// It fills the domain's shared similarity cache, as a long-lived caller's
// earlier queries would have, and its answers are the reference the
// default-Workers answers must equal byte for byte.
func batchReference(ds *dataset) (refs [][]byte, wall float64, err error) {
	for _, k := range batchKs {
		res, w, err := batchQuery(ds, k, topk.Config{Workers: 1})
		if err != nil {
			return nil, 0, err
		}
		canon, err := marshalCanon(res, canonTopK)
		if err != nil {
			return nil, 0, err
		}
		refs = append(refs, canon)
		wall += w
	}
	return refs, wall, nil
}

// runBatchEpisode is the library path with no server: set-up, the
// reference round, then the timed rounds. One op is one round: a query
// per K at the default Workers, each on a fresh engine.
func runBatchEpisode(sz sizes, seed int64) (*episode, error) {
	e := &episode{lat: map[string][]float64{}}
	ds, err := batchSetup(sz, seed, e)
	if err != nil {
		return nil, err
	}
	refs, _, err := batchReference(ds)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuSeconds(), time.Now()
	var results []*topk.Result
	for round := 0; round < sz.batchRounds; round++ {
		var roundS float64
		for _, k := range batchKs {
			res, wall, err := batchQuery(ds, k, topk.Config{})
			if err != nil {
				return nil, err
			}
			results = append(results, res)
			roundS += wall
		}
		e.lat["round"] = append(e.lat["round"], roundS*1e3)
	}
	e.wallS, e.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&after)
	e.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	e.ops = sz.batchRounds
	e.heapMB = liveHeapMB()
	runtime.KeepAlive(ds)

	// Checked after the clock stops, so that encoding the answers is not
	// counted as the engine's time or allocation. A round with a wrong
	// answer is a failed op.
	wrong := map[int]bool{}
	for i, res := range results {
		canon, err := marshalCanon(res, canonTopK)
		if err != nil {
			return nil, err
		}
		if k := batchKs[i%len(batchKs)]; !bytes.Equal(canon, refs[i%len(batchKs)]) {
			wrong[i/len(batchKs)] = true
			e.failures = append(e.failures, fmt.Sprintf("TopK(%d,%d) at default Workers differs from Workers:1", k, batchR))
		}
	}
	e.failed = len(wrong)
	return e, nil
}

// walkLevels is Algorithm 2's level loop (core.PrunedDedupFrom from
// singletons) spelled out in the harness, so that each phase of each
// level is a call the harness can put a span around.
func walkLevels(tr *tracer, op int, ds *dataset, k int) *core.Result {
	ctx := context.Background()
	d := ds.d
	groups := core.SingletonGroups(d)
	res := &core.Result{TotalRecords: d.Len()}
	pct := func(n int) float64 { return 100 * float64(n) / float64(d.Len()) }
	for li, level := range ds.levels {
		st := core.LevelStats{Level: li + 1}
		sp := tr.start("core.collapse", op)
		groups, st.CollapseEvals, _ = core.CollapseWorkersHits(d, groups, level.Sufficient, 0)
		core.SortGroupsByWeight(groups)
		tr.end(sp)
		st.NGroups, st.NGroupsPct = len(groups), pct(len(groups))

		sp = tr.start("core.bound", op)
		st.MRank, st.LowerBound, st.BoundEvals, _ = core.EstimateLowerBoundCtx(ctx, d, groups, level.Necessary, k, 0)
		tr.end(sp)

		sp = tr.start("core.prune", op)
		groups, st.PruneEvals, _ = core.PruneCtx(ctx, d, groups, level.Necessary, st.LowerBound, 2, 0, nil)
		tr.end(sp)
		st.Survivors, st.SurvivorsPct = len(groups), pct(len(groups))

		res.Stats = append(res.Stats, st)
		if len(groups) == k {
			res.ExactlyK = true
			break
		}
	}
	core.SortGroupsByWeight(groups)
	res.Groups = groups
	return res
}

// walkQuery answers TopK(k, batchR) as walkLevels plus Engine.TopKFrom,
// under one "engine.topk" span, and returns the pruning result, the
// answer and the wall time.
func walkQuery(tr *tracer, op int, ds *dataset, k int, sink obs.Sink) (*core.Result, *topk.Result, float64, error) {
	start := time.Now()
	root := tr.start("engine.topk", op)
	pd := walkLevels(tr, op, ds, k)
	sp := tr.start("engine.final", op)
	res, err := topk.New(ds.d, ds.levels, ds.scorer, topk.Config{Metrics: sink}).TopKFrom(pd, k, batchR)
	tr.end(sp)
	tr.end(root)
	return pd, res, time.Since(start).Seconds(), err
}

// batchTrace is what the traced batch episode measures beside its spans.
type batchTrace struct {
	coldS                     float64
	engineS                   map[int][]float64 // K → Engine.TopK wall times
	walkedS                   float64           // summed over the rounds' queries
	pairEvals, scoredPairs    []float64         // per round
	survivorsK10, mK10        float64
	speedupK10, busyShare     float64
	shardRunS, transportCalls float64
	failures                  []string
}

// traceBatch is the traced batch episode: per round and K, one
// Engine.TopK (the wall time the phases must add up to) and one walked
// query with a span per phase; then the parallel and shard probes.
func traceBatch(sz sizes, seed int64, tr *tracer, e *episode) (*batchTrace, error) {
	bt := &batchTrace{engineS: map[int][]float64{}}
	ds, err := batchSetup(sz, seed, e)
	if err != nil {
		return nil, err
	}
	refs, coldS, err := batchReference(ds)
	if err != nil {
		return nil, err
	}
	bt.coldS = coldS
	var pdK10 *core.Result
	for round := 0; round < sz.batchRounds; round++ {
		sink := obs.NewCollector()
		var evals int64
		for i, k := range batchKs {
			var pd *core.Result
			var res *topk.Result
			engine := func() error {
				_, wall, err := batchQuery(ds, k, topk.Config{})
				bt.engineS[k] = append(bt.engineS[k], wall)
				return err
			}
			walk := func() (err error) {
				var walked float64
				pd, res, walked, err = walkQuery(tr, round, ds, k, sink)
				bt.walkedS += walked
				return err
			}
			// The two take turns to go first: the second of a pair finds
			// the processor's caches warm, and the reconciliation must not
			// carry that.
			first, second := engine, walk
			if (round+i)%2 == 1 {
				first, second = walk, engine
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if canon, err := marshalCanon(res, canonTopK); err != nil {
				return nil, err
			} else if !bytes.Equal(canon, refs[i]) {
				bt.failures = append(bt.failures, fmt.Sprintf("walked TopK(%d,%d) differs from Engine.TopK", k, batchR))
			}
			for _, ls := range pd.Stats {
				evals += ls.CollapseEvals + ls.BoundEvals + ls.PruneEvals
			}
			if k == 10 {
				last := pd.Stats[len(pd.Stats)-1]
				bt.survivorsK10, bt.mK10 = float64(last.Survivors), last.LowerBound
				pdK10 = pd
			}
		}
		bt.pairEvals = append(bt.pairEvals, float64(evals))
		bt.scoredPairs = append(bt.scoredPairs, float64(sink.CounterValue("engine.final.scored_pairs")))
	}
	e.ops = sz.batchRounds

	// parallel: the pool's busy time during one default-Workers K=10
	// query, and the same query at Workers:1.
	pool := obs.NewCollector()
	topk.SetPoolMetrics(pool)
	_, wall, err := batchQuery(ds, 10, topk.Config{})
	topk.SetPoolMetrics(nil)
	if err != nil {
		return nil, err
	}
	busy := pool.Snapshot().Observations["parallel.worker.busy.seconds"].Sum
	bt.busyShare = ratio(busy, float64(parallel.Resolve(0))*wall)
	_, serial, err := batchQuery(ds, 10, topk.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	bt.speedupK10 = ratio(serial, median(bt.engineS[10]))

	// shard: not on a default path; recorded so a shard change has a base.
	start := time.Now()
	sharded, rs, err := shard.Run(ds.d, nil, ds.levels, shard.Options{K: 10, Shards: 2})
	bt.shardRunS = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	bt.transportCalls = float64(rs.TransportCalls)
	if !reflect.DeepEqual(sharded.Groups, pdK10.Groups) {
		bt.failures = append(bt.failures, "shard.Run(K:10, Shards:2) groups differ from the single-machine pruning")
	}
	return bt, nil
}
