package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/eval"
	"topkdedup/internal/shard"
)

// ShardRow is one point of the sharded-pipeline sweep: the full
// PrunedDedup pipeline at one (K, shard count, worker bound) setting —
// Shards 0 is the single-machine baseline core.PrunedDedup, S >= 1 the
// sharded coordinator — checked byte-identical against the
// single-machine answer. The JSON form (including the per-level
// bound-exchange and prune-round breakdown) feeds the topkbench -json
// trajectory.
type ShardRow struct {
	Dataset string `json:"dataset"`
	K       int    `json:"k"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	// Elapsed is the median wall time of shardReps runs.
	Elapsed time.Duration `json:"elapsed_ns"`
	// VsSingle is Elapsed over the baseline row's of the same (K,
	// Workers): above 1, sharding is that many times slower.
	VsSingle float64 `json:"vs_single"`
	// Components is the canopy-closure component count — the finest
	// parallelism the blocking keys admit.
	Components int `json:"components"`
	// BoundRounds, FullChecks, and PruneRounds are summed over levels;
	// Levels carries the per-level per-round detail.
	BoundRounds int `json:"bound_rounds"`
	FullChecks  int `json:"full_checks"`
	PruneRounds int `json:"prune_rounds"`
	// M is the final level's certified global lower bound.
	M float64 `json:"m"`
	// Survivors is the group count entering the final phase.
	Survivors int `json:"survivors"`
	// TransportCalls counts coordinator→worker calls.
	TransportCalls int64 `json:"transport_calls"`
	// Match reports byte-identity with the single-machine run (modulo
	// collapse and prune eval counters and wall times).
	Match bool `json:"match"`
	// Levels is the coordinator's per-level exchange log.
	Levels []shard.LevelExchange `json:"levels,omitempty"`
}

// shardCanon serialises a result with the shard-local stats fields
// (collapse and prune eval counters, wall times) zeroed — everything
// else is the byte-identity contract.
func shardCanon(res *core.Result) (string, error) {
	stats := append([]core.LevelStats(nil), res.Stats...)
	for i := range stats {
		stats[i].CollapseEvals, stats[i].PruneEvals = 0, 0
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
	}
	canon := *res
	canon.Stats = stats
	data, err := json.Marshal(&canon)
	return string(data), err
}

// shardReps is how many times each sweep cell is timed.
const shardReps = 3

// medianTime runs f shardReps times and returns the last result with
// the median wall time.
func medianTime[T any](f func() (T, error)) (T, time.Duration, error) {
	var out T
	times := make([]time.Duration, shardReps)
	for i := range times {
		start := time.Now()
		var err error
		if out, err = f(); err != nil {
			return out, 0, err
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return out, times[shardReps/2], nil
}

// ShardSweep times the pruning pipeline over the K × worker bound ×
// shard count grid — per (K, workers) first the single-machine baseline,
// then the sharded coordinator at each shard count — recording wall
// clock, its ratio to the baseline and the coordinator's exchange
// statistics, and verifying every cell against the single-machine
// core.PrunedDedup answer.
func ShardSweep(dd *DomainData, ks, shardCounts, workers []int) ([]ShardRow, error) {
	var rows []ShardRow
	for _, k := range ks {
		want, err := core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Workers: 1})
		if err != nil {
			return nil, err
		}
		wantCanon, err := shardCanon(want)
		if err != nil {
			return nil, err
		}
		for _, nw := range workers {
			single, base, err := medianTime(func() (*core.Result, error) {
				return core.PrunedDedup(dd.Data, dd.Domain.Levels, core.Options{K: k, Workers: nw, Sink: metricsSink})
			})
			if err != nil {
				return nil, err
			}
			last := single.Stats[len(single.Stats)-1]
			rows = append(rows, ShardRow{
				Dataset: dd.Name, K: k, Workers: nw, Elapsed: base, VsSingle: 1,
				M: last.LowerBound, Survivors: last.Survivors, Match: true,
			})
			for _, s := range shardCounts {
				var rs *shard.RunStats
				res, elapsed, err := medianTime(func() (res *core.Result, err error) {
					res, rs, err = shard.Run(dd.Data, nil, dd.Domain.Levels, shard.Options{
						K: k, Shards: s, Workers: nw, Sink: metricsSink,
					})
					return res, err
				})
				if err != nil {
					return nil, err
				}
				gotCanon, err := shardCanon(res)
				if err != nil {
					return nil, err
				}
				row := ShardRow{
					Dataset: dd.Name, K: k, Shards: s, Workers: nw, Elapsed: elapsed,
					VsSingle:       float64(elapsed) / float64(base),
					Components:     rs.Components,
					TransportCalls: rs.TransportCalls,
					Match:          gotCanon == wantCanon,
					Levels:         rs.Levels,
				}
				for _, lx := range rs.Levels {
					row.BoundRounds += lx.BoundRounds
					row.FullChecks += lx.FullChecks
					row.PruneRounds += lx.PruneRounds
					row.M = lx.M
					row.Survivors = lx.Survivors
				}
				if !row.Match {
					return nil, fmt.Errorf("shard sweep: %s K=%d shards=%d workers=%d diverged from single-machine answer", dd.Name, k, s, nw)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderShardTable prints the sharded-pipeline sweep; the baseline rows
// read "single" in the shards column.
func RenderShardTable(w io.Writer, rows []ShardRow) {
	tbl := eval.NewTable("dataset", "K", "workers", "shards", "time", "x single", "components", "calls", "bound-rounds", "full-checks", "prune-rounds", "survivors", "M", "match")
	for _, r := range rows {
		shards := any(r.Shards)
		if r.Shards == 0 {
			shards = "single"
		}
		tbl.AddRow(r.Dataset, r.K, r.Workers, shards, r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", r.VsSingle), r.Components, r.TransportCalls,
			r.BoundRounds, r.FullChecks, r.PruneRounds, r.Survivors,
			fmt.Sprintf("%.1f", r.M), r.Match)
	}
	tbl.Render(w)
}
