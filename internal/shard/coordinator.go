package shard

import (
	"context"
	"sync"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
)

// LevelExchange reports one level's coordination work.
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
	Shards int `json:"shards"`
	// Components is the canopy-closure component count (0 when the
	// partition was built elsewhere, e.g. by a remote coordinator).
	Components int `json:"components"`
	// Levels has one entry per executed predicate level.
	Levels []LevelExchange `json:"levels"`
	// TransportCalls counts coordinator→shard calls.
	TransportCalls int64 `json:"transport_calls"`
}

// Exchange drives the coordinator's level loop over an already-loaded
// Transport: per level it fans out the collapse, merges shard metadata
// into the global rank order, runs the bound-exchange protocol to the
// exact global (m, M), broadcasts M, and coordinates prune rounds until
// no shard's alive set shrinks. The produced result is byte-identical to
// core.PrunedDedupFromCtx on the unpartitioned input (groups, order,
// per-level NGroups/MRank/LowerBound/BoundEvals/Survivors, ExactlyK);
// collapse and prune eval counters and wall times are aggregated per
// shard and may differ.
//
// When ctx carries a trace span, the coordinator records a
// shard.exchange span with one shard.level child per level, whose
// shard.collapse/shard.bound/shard.prune children carry the exact attr
// keys of their core.* single-machine counterparts — so obs.BuildExplain
// reads both pipeline shapes identically. Tracing is observational only.
func Exchange(ctx context.Context, t Transport, nlevels, totalRecords int, opts Options) (*core.Result, *RunStats, error) {
	k := opts.K
	passes := opts.PrunePasses
	if passes <= 0 {
		passes = 2
	}
	sink := opts.Sink
	rs := &RunStats{Shards: t.Shards()}
	res := &core.Result{TotalRecords: totalRecords}
	if totalRecords == 0 {
		return res, rs, nil
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(totalRecords) }

	ctx, spX := obs.StartChild(ctx, "shard.exchange")
	if spX != nil {
		spX.Attr("shards", float64(t.Shards()))
		defer spX.End()
	}

	var merged []core.Group // rank-ordered metadata: Rep + Weight only
	var shardOf []int32
	for li := 0; li < nlevels; li++ {
		stats := core.LevelStats{Level: li + 1}
		lx := LevelExchange{Level: li + 1}
		ctxL, spL := obs.StartChild(ctx, "shard.level")
		spL.Attr("level", float64(li+1))

		start := time.Now()
		ctxC, spC := obs.StartChild(ctxL, "shard.collapse")
		collapses, err := fanOut(t.Shards(), rs, func(s int) (*CollapseResponse, error) {
			return t.Collapse(ctxC, s, li)
		})
		if err != nil {
			return nil, rs, err
		}
		var metas [][]GroupMeta
		var collapseHits int64
		groupsBefore := 0
		for _, c := range collapses {
			metas = append(metas, c.Groups)
			stats.CollapseEvals += c.Evals
			collapseHits += c.Hits
			groupsBefore += c.Before
		}
		merged, shardOf = mergeMetas(metas)
		if spC != nil {
			spC.Attr("evals", float64(stats.CollapseEvals))
			spC.Attr("hits", float64(collapseHits))
			spC.Attr("groups_before", float64(groupsBefore))
			spC.Attr("groups_after", float64(len(merged)))
			spC.End()
		}
		stats.CollapseTime = time.Since(start)
		stats.NGroups = len(merged)
		stats.NGroupsPct = pct(len(merged))
		obs.ObserveDuration(sink, "shard.collapse", stats.CollapseTime)

		start = time.Now()
		stats.MRank, stats.LowerBound, stats.BoundEvals, _, err = core.ReplayBound(ctxL, "shard.bound", merged, shardOf, shardParts{t, rs, &lx}, k)
		if err != nil {
			return nil, rs, err
		}
		stats.BoundTime = time.Since(start)
		lx.MRank, lx.M = stats.MRank, stats.LowerBound
		obs.ObserveDuration(sink, "shard.bound", stats.BoundTime)
		obs.Observe(sink, "shard.bound.rounds", float64(lx.BoundRounds))
		obs.Observe(sink, "shard.bound.fullchecks", float64(lx.FullChecks))
		obs.Gauge(sink, "shard.bound.m", stats.LowerBound)

		start = time.Now()
		ctxP, spP := obs.StartChild(ctxL, "shard.prune")
		preCount := len(merged)
		stage0 := 0
		var pruneHits int64
		if stats.LowerBound > 0 {
			starts, err := fanOut(t.Shards(), rs, func(s int) (*PruneResponse, error) {
				return t.Prune(ctxP, s, &PruneRequest{Op: PruneStart, M: stats.LowerBound})
			})
			if err != nil {
				return nil, rs, err
			}
			alive := 0
			for _, r := range starts {
				alive += r.Alive
			}
			// Stage-0 kills are evaluation-free cascades inside PruneStart;
			// the coordinator sees them as merged-before minus Σ alive.
			stage0 = preCount - alive
			// Coordinated Jacobi rounds: one pass everywhere per round;
			// stop only when a whole round kills nothing anywhere. A
			// shard cannot stop on its own — a pass with no local kills
			// still tightens bounds other shards' next passes read... on
			// the same shard: later global rounds can come back and kill
			// here, so the stop rule must be global to match the
			// single-machine loop.
			for pass := 0; pass < passes; pass++ {
				ctxR, spR := obs.StartChild(ctxP, "shard.prune.round")
				rounds, err := fanOut(t.Shards(), rs, func(s int) (*PruneResponse, error) {
					return t.Prune(ctxR, s, &PruneRequest{Op: PrunePass})
				})
				if err != nil {
					return nil, rs, err
				}
				pruned := 0
				var roundEvals, roundHits int64
				for _, r := range rounds {
					pruned += r.Pruned
					roundEvals += r.Evals
					roundHits += r.Hits
				}
				stats.PruneEvals += roundEvals
				pruneHits += roundHits
				lx.PruneRounds++
				lx.PrunedPerRound = append(lx.PrunedPerRound, pruned)
				obs.Observe(sink, "shard.prune.round.pruned", float64(pruned))
				if spR != nil {
					spR.Attr("round", float64(pass+1))
					spR.Attr("evals", float64(roundEvals))
					spR.Attr("hits", float64(roundHits))
					spR.Attr("pruned", float64(pruned))
					spR.End()
				}
				if pruned == 0 {
					break
				}
			}
		}
		finishes, err := fanOut(t.Shards(), rs, func(s int) (*PruneResponse, error) {
			return t.Prune(ctxP, s, &PruneRequest{Op: PruneFinish})
		})
		if err != nil {
			return nil, rs, err
		}
		metas = metas[:0]
		for _, f := range finishes {
			metas = append(metas, f.Groups)
		}
		merged, shardOf = mergeMetas(metas)
		if spP != nil {
			spP.Attr("m", stats.LowerBound)
			spP.Attr("evals", float64(stats.PruneEvals))
			spP.Attr("hits", float64(pruneHits))
			spP.Attr("stage0_pruned", float64(stage0))
			spP.Attr("survivors", float64(len(merged)))
			spP.End()
		}
		stats.PruneTime = time.Since(start)
		stats.Survivors = len(merged)
		stats.SurvivorsPct = pct(len(merged))
		lx.Survivors = len(merged)
		obs.ObserveDuration(sink, "shard.prune", stats.PruneTime)
		obs.Observe(sink, "shard.prune.rounds", float64(lx.PruneRounds))
		obs.Observe(sink, "shard.survivors", float64(lx.Survivors))

		res.Stats = append(res.Stats, stats)
		rs.Levels = append(rs.Levels, lx)
		obs.Count(sink, "shard.levels", 1)
		spL.End()
		if len(merged) == k {
			res.ExactlyK = true
			break
		}
	}

	// Gather the survivors' full member lists and sort into the global
	// rank order (identical to sorting the unpartitioned survivor list:
	// the (weight, rep) comparator sees the exact same values).
	gathers, err := fanOut(t.Shards(), rs, func(s int) (*GroupsResponse, error) {
		return t.Groups(ctx, s)
	})
	if err != nil {
		return nil, rs, err
	}
	var groups []core.Group
	for _, g := range gathers {
		for _, wg := range g.Groups {
			groups = append(groups, core.Group{Rep: wg.Rep, Members: wg.Members, Weight: wg.Weight})
		}
	}
	core.SortGroupsByWeight(groups)
	res.Groups = groups
	obs.Count(sink, "shard.transport.calls", rs.TransportCalls)
	return res, rs, nil
}

// shardParts is the coordinator's side of the §4.2 scan: the
// core.BoundParts whose part s is shard s's local group list, scanned by
// the shard's own BoundScanner on the far side of the Transport.
// core.ReplayBound — the loop the single-machine scan runs — replays the
// returned verdicts in global rank order through one
// graph.PrefixController, and when the cheap bound stalls folds the
// per-shard Algorithm-1 bounds: their sum equals the global prefix bound
// because canopy components never straddle shards, so the Min-fill
// elimination of the global prefix graph decomposes into the per-shard
// eliminations. The controller therefore traverses the exact decision
// sequence of the single-machine scan and certifies the same rank m and
// bound M from the same evaluations. A shard with no rank in a block (or
// in a probed prefix) is not called.
type shardParts struct {
	t  Transport
	rs *RunStats
	lx *LevelExchange
}

// Parts implements core.BoundParts.
func (sp shardParts) Parts() int { return sp.t.Shards() }

// call fans one Bounds sub-operation out to the shards with a non-zero
// count; req builds a shard's request from its count.
func (sp shardParts) call(ctx context.Context, counts []int, req func(n int) *BoundsRequest) ([]*BoundsResponse, error) {
	for _, c := range counts {
		if c == 0 {
			sp.rs.TransportCalls--
		}
	}
	return fanOut(len(counts), sp.rs, func(s int) (*BoundsResponse, error) {
		if counts[s] == 0 {
			return &BoundsResponse{}, nil
		}
		return sp.t.Bounds(ctx, s, req(counts[s]))
	})
}

// Scan implements core.BoundParts: one bound-exchange round.
func (sp shardParts) Scan(ctx context.Context, counts []int) ([]core.PartScan, error) {
	resps, err := sp.call(ctx, counts, func(n int) *BoundsRequest { return &BoundsRequest{Op: BoundsScan, Count: n} })
	if err != nil {
		return nil, err
	}
	sp.lx.BoundRounds++
	out := make([]core.PartScan, len(resps))
	for s, r := range resps {
		out[s] = core.PartScan{Independent: r.Independent, Evals: r.Evals, Hits: r.Hits}
	}
	return out, nil
}

// CPN implements core.BoundParts: one CPN fold round.
func (sp shardParts) CPN(ctx context.Context, prefix []int) (int, error) {
	sp.lx.FullChecks++
	resps, err := sp.call(ctx, prefix, func(n int) *BoundsRequest { return &BoundsRequest{Op: BoundsCPN, Prefix: n} })
	total := 0
	for _, r := range resps {
		total += r.CPN
	}
	return total, err
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

// fanOut invokes f once per shard concurrently and collects the results
// in shard order, failing on the first error. rs.TransportCalls is
// advanced by the shard count; callers that skip idle shards inside f
// correct the total themselves before calling.
func fanOut[T any](shards int, rs *RunStats, f func(s int) (T, error)) ([]T, error) {
	rs.TransportCalls += int64(shards)
	out := make([]T, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out[s], errs[s] = f(s)
		}(s)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}
