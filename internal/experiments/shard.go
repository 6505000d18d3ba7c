package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/eval"
	"topkdedup/internal/shard"
)

// ShardRow is one point of the sharded-pipeline sweep: the full
// PrunedDedup pipeline run through the in-process sharded coordinator at
// one (K, shard count, worker bound) setting, checked byte-identical
// against the single-machine answer. The JSON form (including the
// per-level bound-exchange and prune-round breakdown) feeds the
// topkbench -json trajectory.
type ShardRow struct {
	K       int           `json:"k"`
	Shards  int           `json:"shards"`
	Workers int           `json:"workers"`
	Elapsed time.Duration `json:"elapsed_ns"`
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
	// TransportCalls counts coordinator→shard calls.
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

// ShardSweep runs the pruning pipeline through the in-process sharded
// coordinator over the K × shard count × worker bound grid, recording
// wall clock and the coordinator's exchange statistics, and verifying
// every cell against the single-machine core.PrunedDedup answer.
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
		for _, s := range shardCounts {
			for _, nw := range workers {
				start := time.Now()
				res, rs, err := shard.Run(dd.Data, nil, dd.Domain.Levels, shard.Options{
					K: k, Shards: s, Workers: nw, Sink: metricsSink,
				})
				if err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				gotCanon, err := shardCanon(res)
				if err != nil {
					return nil, err
				}
				row := ShardRow{
					K: k, Shards: s, Workers: nw, Elapsed: elapsed,
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
					return nil, fmt.Errorf("shard sweep: K=%d shards=%d workers=%d diverged from single-machine answer", k, s, nw)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderShardTable prints the sharded-pipeline sweep.
func RenderShardTable(w io.Writer, rows []ShardRow) {
	tbl := eval.NewTable("K", "shards", "workers", "time", "components", "bound-rounds", "full-checks", "prune-rounds", "survivors", "M", "match")
	for _, r := range rows {
		tbl.AddRow(r.K, r.Shards, r.Workers, r.Elapsed.Round(time.Millisecond).String(),
			r.Components, r.BoundRounds, r.FullChecks, r.PruneRounds, r.Survivors,
			fmt.Sprintf("%.1f", r.M), r.Match)
	}
	tbl.Render(w)
}
