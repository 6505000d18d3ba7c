package shard

import (
	"context"
	"sync"
	"time"

	"topkdedup/internal/core"
)

// LevelExchange reports one level's coordination work (the JSON form is
// topkbench -json's shard_rows[].levels).
type LevelExchange struct {
	// Level is the 1-based predicate level.
	Level int `json:"level"`
	// BoundRounds is how many scan blocks the bound exchange fanned out.
	BoundRounds int `json:"bound_rounds"`
	// FullChecks is how many CPN fold rounds (Σ per-shard Algorithm-1
	// bounds) the stalled cheap bound forced.
	FullChecks int `json:"full_checks"`
	// MRank and M are the level's certified rank and lower bound.
	MRank int `json:"m_rank"`
	// M is the level's global lower bound (0 disables pruning).
	M float64 `json:"m"`
	// PruneRounds is how many coordinated Jacobi rounds ran.
	PruneRounds int `json:"prune_rounds"`
	// PrunedPerRound is the global kill count of each round; the last
	// entry is 0 exactly when the protocol terminated by fixpoint rather
	// than by the pass cap.
	PrunedPerRound []int `json:"pruned_per_round,omitempty"`
	// Survivors is the global group count after pruning.
	Survivors int `json:"survivors"`
}

// RunStats reports a sharded run's coordination work, alongside the
// core.Result stats (which carry the per-level group counts and bounds
// and are byte-identical to a single-shard run except for the collapse
// and prune eval counters and wall times, whose aggregation is
// shard-local).
type RunStats struct {
	// Shards is the shard count the run used.
	Shards int
	// Components is the canopy-closure component count (set by RunCtx,
	// which builds the partition).
	Components int
	// Levels has one entry per executed predicate level.
	Levels []LevelExchange
	// TransportCalls counts coordinator→worker calls (the fan-outs of
	// each phase, idle shards of a bound round excluded).
	TransportCalls int64
}

// Exchange drives the coordinator's level loop over one Worker per
// shard: per level it fans out the collapse, merges shard metadata into
// the global rank order, runs the bound-exchange protocol to the exact
// global (m, M), broadcasts M, and coordinates prune rounds until no
// shard's alive set shrinks. The produced result is byte-identical to
// core.PrunedDedupFromCtx on the unpartitioned input (groups, order,
// per-level NGroups/MRank/LowerBound/BoundEvals/Survivors, ExactlyK);
// collapse and prune eval counters and wall times are aggregated per
// shard and may differ.
func Exchange(ctx context.Context, ws []*Worker, nlevels, totalRecords int, opts Options) (*core.Result, *RunStats, error) {
	k := opts.K
	passes := opts.PrunePasses
	if passes <= 0 {
		passes = 2
	}
	rs := &RunStats{Shards: len(ws)}
	res := &core.Result{TotalRecords: totalRecords}
	if totalRecords == 0 {
		return res, rs, nil
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(totalRecords) }

	var merged []core.Group // rank-ordered metadata: Rep + Weight only
	var shardOf []int32
	metas := make([][]GroupMeta, len(ws))
	for li := 0; li < nlevels; li++ {
		stats := core.LevelStats{Level: li + 1}
		lx := LevelExchange{Level: li + 1}

		start := time.Now()
		evals := make([]int64, len(ws))
		fanOut(ws, rs, func(s int, w *Worker) {
			metas[s], evals[s] = w.Collapse(li)
		})
		for _, e := range evals {
			stats.CollapseEvals += e
		}
		merged, shardOf = mergeMetas(metas)
		stats.CollapseTime = time.Since(start)
		stats.NGroups = len(merged)
		stats.NGroupsPct = pct(len(merged))

		start = time.Now()
		var err error
		stats.MRank, stats.LowerBound, stats.BoundEvals, _, err = core.ReplayBound(ctx, "shard.bound", merged, shardOf, shardParts{ws, rs, &lx}, k)
		if err != nil {
			return nil, rs, err
		}
		stats.BoundTime = time.Since(start)
		lx.MRank, lx.M = stats.MRank, stats.LowerBound

		start = time.Now()
		if stats.LowerBound > 0 {
			// Stage-0 kills are evaluation-free cascades inside PruneStart.
			fanOut(ws, rs, func(_ int, w *Worker) { w.PruneStart(stats.LowerBound) })
			// Coordinated Jacobi rounds: one pass everywhere per round;
			// stop only when a whole round kills nothing anywhere. A
			// shard cannot stop on its own — a pass with no local kills
			// still tightens bounds the same shard's next pass reads, so
			// later global rounds can come back and kill here: the stop
			// rule must be global to match the single-machine loop.
			pruned := make([]int, len(ws))
			for pass := 0; pass < passes; pass++ {
				fanOut(ws, rs, func(s int, w *Worker) {
					pruned[s], evals[s] = w.PrunePass(ctx)
				})
				round := 0
				for s := range ws {
					round += pruned[s]
					stats.PruneEvals += evals[s]
				}
				lx.PruneRounds++
				lx.PrunedPerRound = append(lx.PrunedPerRound, round)
				if round == 0 {
					break
				}
			}
		}
		fanOut(ws, rs, func(s int, w *Worker) { metas[s] = w.PruneFinish() })
		merged, shardOf = mergeMetas(metas)
		stats.PruneTime = time.Since(start)
		stats.Survivors = len(merged)
		stats.SurvivorsPct = pct(len(merged))
		lx.Survivors = len(merged)

		res.Stats = append(res.Stats, stats)
		rs.Levels = append(rs.Levels, lx)
		if len(merged) == k {
			res.ExactlyK = true
			break
		}
	}

	// Gather the survivors' full member lists and sort into the global
	// rank order (identical to sorting the unpartitioned survivor list:
	// the (weight, rep) comparator sees the exact same values).
	rs.TransportCalls += int64(len(ws))
	groups := make([]core.Group, 0, len(merged))
	for _, w := range ws {
		groups = append(groups, w.Groups()...)
	}
	core.SortGroupsByWeight(groups)
	res.Groups = groups
	return res, rs, nil
}

// shardParts is the coordinator's side of the §4.2 scan: the
// core.BoundParts whose part s is shard s's local group list, scanned by
// the shard's own BoundScanner. core.ReplayBound — the loop the
// single-machine scan runs — replays the returned verdicts in global
// rank order through one graph.PrefixController, and when the cheap
// bound stalls folds the per-shard Algorithm-1 bounds: their sum equals
// the global prefix bound because canopy components never straddle
// shards, so the Min-fill elimination of the global prefix graph
// decomposes into the per-shard eliminations. The controller therefore
// traverses the exact decision sequence of the single-machine scan and
// certifies the same rank m and bound M from the same evaluations. A
// shard with no rank in a block (or in a probed prefix) is not called.
type shardParts struct {
	ws []*Worker
	rs *RunStats
	lx *LevelExchange
}

// Parts implements core.BoundParts.
func (sp shardParts) Parts() int { return len(sp.ws) }

// call runs f on every shard with a non-zero count.
func (sp shardParts) call(counts []int, f func(s int, w *Worker)) {
	for _, c := range counts {
		if c == 0 {
			sp.rs.TransportCalls--
		}
	}
	fanOut(sp.ws, sp.rs, func(s int, w *Worker) {
		if counts[s] > 0 {
			f(s, w)
		}
	})
}

// Scan implements core.BoundParts: one bound-exchange round.
func (sp shardParts) Scan(_ context.Context, counts []int) ([]core.PartScan, error) {
	sp.lx.BoundRounds++
	out := make([]core.PartScan, len(sp.ws))
	sp.call(counts, func(s int, w *Worker) { out[s] = w.Scan(counts[s]) })
	return out, nil
}

// CPN implements core.BoundParts: one CPN fold round.
func (sp shardParts) CPN(_ context.Context, prefix []int) (int, error) {
	sp.lx.FullChecks++
	cpns := make([]int, len(sp.ws))
	sp.call(prefix, func(s int, w *Worker) { cpns[s] = w.CPN(prefix[s]) })
	total := 0
	for _, c := range cpns {
		total += c
	}
	return total, nil
}

// mergeMetas folds per-shard rank-ordered metadata into the global rank
// order (weight descending, global representative ascending — the exact
// core.SortGroupsByWeight comparator, with representatives unique across
// shards, so the order is total and deterministic). It returns the
// merged metadata as member-less groups plus each rank's owning shard.
func mergeMetas(metas [][]GroupMeta) ([]core.Group, []int32) {
	total := 0
	for _, m := range metas {
		total += len(m)
	}
	merged := make([]core.Group, 0, total)
	shardOf := make([]int32, 0, total)
	// k-way merge over the already-sorted shard lists.
	at := make([]int, len(metas))
	for len(merged) < total {
		best := -1
		for s, m := range metas {
			if at[s] >= len(m) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			a, b := m[at[s]], metas[best][at[best]]
			if a.Weight > b.Weight || (a.Weight == b.Weight && a.Rep < b.Rep) {
				best = s
			}
		}
		gm := metas[best][at[best]]
		at[best]++
		merged = append(merged, core.Group{Rep: gm.Rep, Weight: gm.Weight})
		shardOf = append(shardOf, int32(best))
	}
	return merged, shardOf
}

// fanOut invokes f once per shard concurrently — each call owns its
// worker and its slot s of whatever f fills — and returns when all have.
// rs.TransportCalls is advanced by the shard count; callers that skip
// idle shards inside f correct the total themselves before calling.
func fanOut(ws []*Worker, rs *RunStats, f func(s int, w *Worker)) {
	rs.TransportCalls += int64(len(ws))
	var wg sync.WaitGroup
	for s, w := range ws {
		wg.Add(1)
		go func(s int, w *Worker) {
			defer wg.Done()
			f(s, w)
		}(s, w)
	}
	wg.Wait()
}
