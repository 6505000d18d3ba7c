package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

const specPath = "../BENCHMARK.json"

// smokeOptions shrinks a workload to a few hundred records and one short
// episode, so that the whole file runs in seconds.
func smokeOptions(t *testing.T, workload string, trace int) options {
	return options{
		workload: workload, seed: 7, seconds: 0.05, trace: trace,
		scale: 0.03, probeReps: 1, workdir: t.TempDir(), spec: specPath,
	}
}

// mustMove names, per workload, layer metrics that cannot read 0 when the
// workload ran its layers at all: a 0 there means the harness lost them.
var mustMove = map[string][]string{
	"batch_citations": {"batch_round_s", "engine.topk.k10_s", "core.prune_s", "core.pair_evals", "core.survivors_k10", "engine.final_s", "shard.run_s"},
	"serve_read":      {"topk_exact_miss_p50_ms", "topk_exact_hit_p50_ms", "rank_miss_p50_ms", "stream.topk_ms", "engine.final_ms", "rankquery.rank_ms", "server.cache.hit_share"},
	"serve_ingest":    {"ingest_p50_ms", "ingest_p99_ms", "recovery_s", "wal.append_ms", "wal.fsyncs_per_batch", "wal.bytes_per_record", "wal.replay_s", "stream.add_us_per_record", "stream.snapshot_ms"},
	"serve_mixed":     {"topk_approx_p50_ms", "topk_hybrid_p50_ms", "approx_recall_at_10", "sketch.top_us", "inc.rebuilt_groups_share", "ingest_p50_ms"},
}

// TestSmoke runs every workload in both modes and checks the result
// line: correct, nothing failed, exactly the metrics BENCHMARK.json names
// for the mode with the units it gives them, end-to-end metrics non-zero.
// The traced mode runs twice with the one seed: the metrics that count
// work, not time, must read exactly the same, and the spans must be on
// disk.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(o options, list []metricDef) *result {
		res, err := run(o, io.Discard)
		if err != nil {
			t.Fatalf("%s trace=%d: %v", o.workload, o.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", o.workload, o.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(list) {
			t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", o.workload, o.trace, len(res.Metrics), len(list))
		}
		for _, d := range list {
			got, ok := res.Metrics[d.Name]
			if !ok || got.Unit != d.Unit {
				t.Errorf("%s trace=%d: metric %s: printed=%v unit %q, want unit %q", o.workload, o.trace, d.Name, ok, got.Unit, d.Unit)
			}
			if o.trace == 0 && got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", o.workload, d.Name, got.Value)
			}
		}
		// The line the driver parses has exactly these keys.
		line, _ := json.Marshal(res)
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Errorf("%s: result line %s", o.workload, line)
		}
		return res
	}
	for _, wl := range sp.Workloads {
		check(smokeOptions(t, wl.Name, 0), sp.EndToEnd)

		o := smokeOptions(t, wl.Name, 1)
		first, second := check(o, sp.PerLayer), check(o, sp.PerLayer)
		for _, name := range mustMove[wl.Name] {
			if first.Metrics[name].Value == 0 {
				t.Errorf("%s: layer metric %s reads 0", wl.Name, name)
			}
		}
		for _, name := range exactCounts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v with one seed", wl.Name, name, a, b)
			}
		}
		checkTraceFile(t, filepath.Join(o.workdir, "trace_"+wl.Name+".json"))
	}
}

// checkTraceFile checks that a traced run left its spans on disk, each
// with a name, an interval and a parent that exists.
func checkTraceFile(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s: no spans written", path)
	}
	for _, s := range doc.Spans {
		if s.Name == "" || s.End < s.Start || s.Parent >= len(doc.Spans) {
			t.Errorf("%s: malformed span %+v", path, s)
			return
		}
	}
}

// TestCompare feeds the comparer two files of one run each: equal files
// pass, a file made 50 % worse on a bounded metric breaches.
func TestCompare(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(factor float64) []record {
		var out []record
		for seed := int64(1); seed <= 2; seed++ {
			metrics := map[string]metricValue{}
			for _, d := range sp.EndToEnd {
				v := 10.0
				if d.Better == "lower" {
					v *= factor
				} else {
					v /= factor
				}
				metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			out = append(out, record{Workload: "serve_read", Seed: seed, Result: &result{Correct: true, Attempted: 10, Metrics: metrics}})
		}
		return out
	}
	var buf bytes.Buffer
	if code := compare(sp, mk(1), mk(1.01), &buf); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compare(sp, mk(1), mk(1.5), &buf); code != 1 {
		t.Errorf("compare of a 50%% regression exited %d:\n%s", code, buf.String())
	}
	// The quartiles are Python's statistics.quantiles(n=4) on 1..10.
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
