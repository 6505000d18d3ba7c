package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"

	topk "topkdedup"
	"topkdedup/internal/server"
	"topkdedup/internal/stream"
)

// The correctness gate. A serve episode is correct when, after it
// quiesces, the served exact answers equal the batch engine's over the
// same records in the order the server applied them, and every sketch
// interval it served contains the level-1 closure weight a mirror
// accumulator computes for that epoch.

// canonTopK re-encodes a topk.Result with its wall-clock phase times
// zeroed. Everything else, the eval counts included, is compared byte for
// byte.
func canonTopK(raw []byte) ([]byte, error) {
	var res topk.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding topk result: %w", err)
	}
	stripTimes(res.Pruning)
	return json.Marshal(&res)
}

// canonRank is canonTopK for a rank-query result.
func canonRank(raw []byte) ([]byte, error) {
	var res topk.RankResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding rank result: %w", err)
	}
	stripTimes(res.PrunedStats)
	return json.Marshal(&res)
}

func stripTimes(stats []topk.LevelStats) {
	for i := range stats {
		stats[i].CollapseTime, stats[i].BoundTime, stats[i].PruneTime = 0, 0, 0
	}
}

// sameButEvals compares a served answer with the batch engine's, both
// canonical, with the eval counts left out: those are costs, and the two
// pipelines pay them differently. The server's maintained collapse pays its
// evals at ingest, so CollapseEvals always differ; pruning from the
// maintained groups was seen to spend two evals more or fewer than pruning
// from a fresh collapse of the same records (serve_mixed, seed 9). Group
// counts, M, the lower bound and the survivors of every level stay in.
// delta is how far apart the bound and prune eval counts were, summed over
// the levels, and is reported as server.eval_delta.
func sameButEvals[T any](served, batch []byte, stats func(*T) []topk.LevelStats) (same bool, delta int64, err error) {
	var s, b T
	if err := json.Unmarshal(served, &s); err != nil {
		return false, 0, err
	}
	if err := json.Unmarshal(batch, &b); err != nil {
		return false, 0, err
	}
	ss, bs := stats(&s), stats(&b)
	for i := range ss {
		if i < len(bs) {
			delta += abs(ss[i].BoundEvals-bs[i].BoundEvals) + abs(ss[i].PruneEvals-bs[i].PruneEvals)
		}
	}
	for _, st := range [][]topk.LevelStats{ss, bs} {
		for i := range st {
			st[i].CollapseEvals, st[i].BoundEvals, st[i].PruneEvals = 0, 0, 0
		}
	}
	sj, err := json.Marshal(&s)
	if err != nil {
		return false, 0, err
	}
	bj, err := json.Marshal(&b)
	if err != nil {
		return false, 0, err
	}
	return bytes.Equal(sj, bj), delta, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// servedAnswers are the canonical /topk?k=10&r=3 and /rank?k=10 results
// of a quiesced server, with the record count they were computed on.
type servedAnswers struct {
	records    int
	topk, rank []byte
}

func fetchAnswers(ts *httptest.Server) (*servedAnswers, error) {
	var out servedAnswers
	for _, q := range []struct {
		path  string
		canon func([]byte) ([]byte, error)
		into  *[]byte
	}{
		{"/topk?k=10&r=3", canonTopK, &out.topk},
		{"/rank?k=10", canonRank, &out.rank},
	} {
		body, _, err := get(ts, q.path)
		if err != nil {
			return nil, err
		}
		var env struct {
			Records int             `json:"records"`
			Result  json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", q.path, err)
		}
		out.records = env.Records
		if *q.into, err = q.canon(env.Result); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// checker holds what a quiesced episode is checked against: the data, how
// much of it was seeded, and the ingested batches in applied order.
type checker struct {
	ds      *dataset
	seeded  int
	applied [][]server.IngestRecord
}

// records is the number of records the server acknowledged.
func (c *checker) records() int {
	n := c.seeded
	for _, b := range c.applied {
		n += len(b)
	}
	return n
}

// exact compares the served answers with the batch engine's over the
// records in applied order, and returns the eval delta between them.
func (c *checker) exact(served *servedAnswers) (evalDelta int64, fails []string) {
	d := c.ds.prefix(c.seeded)
	for _, b := range c.applied {
		appendRecords(d, b)
	}
	if served.records != d.Len() {
		return 0, []string{fmt.Sprintf("server answered over %d records, %d were acknowledged", served.records, d.Len())}
	}
	eng := topk.New(d, c.ds.levels, c.ds.scorer, topk.Config{})
	res, err := eng.TopK(10, 3)
	if err != nil {
		return 0, []string{"reference topk: " + err.Error()}
	}
	rank, err := eng.TopKRank(10)
	if err != nil {
		return 0, []string{"reference rank: " + err.Error()}
	}
	wantTopK, err := marshalCanon(res, canonTopK)
	if err != nil {
		return 0, []string{err.Error()}
	}
	wantRank, err := marshalCanon(rank, canonRank)
	if err != nil {
		return 0, []string{err.Error()}
	}
	sameTopK, deltaTopK, err := sameButEvals(served.topk, wantTopK, func(r *topk.Result) []topk.LevelStats { return r.Pruning })
	if err != nil {
		return 0, []string{err.Error()}
	}
	sameRank, deltaRank, err := sameButEvals(served.rank, wantRank, func(r *topk.RankResult) []topk.LevelStats { return r.PrunedStats })
	if err != nil {
		return 0, []string{err.Error()}
	}
	if !sameTopK {
		fails = append(fails, "served /topk?k=10&r=3 differs from the batch engine over the same records")
	}
	if !sameRank {
		fails = append(fails, "served /rank?k=10 differs from the batch engine over the same records")
	}
	return deltaTopK + deltaRank, fails
}

// marshalCanon encodes a reference result the way the server does and
// canonicalises it like a served one.
func marshalCanon(v any, canon func([]byte) ([]byte, error)) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return canon(raw)
}

// sketch replays the applied records into a mirror accumulator and, at
// every epoch an approx or hybrid answer was read from, checks each
// served [lower, count] against the closure weight of the entry's
// component. It returns approx_recall_at_10 on the final state: the share
// of the mirror's ten heaviest closure groups that mode=approx&k=10
// names.
func (c *checker) sketch(ts *httptest.Server, answers []sketchAnswer) (recall float64, fails []string) {
	mirror, err := stream.New(c.ds.d.Name, c.ds.d.Schema, c.ds.levels)
	if err != nil {
		return 0, []string{"mirror: " + err.Error()}
	}
	byEpoch := map[int][]sketchAnswer{}
	for _, a := range answers {
		byEpoch[a.records] = append(byEpoch[a.records], a)
	}
	violations, checked := 0, 0
	checkEpoch := func() {
		at := byEpoch[mirror.Len()]
		if len(at) == 0 {
			return
		}
		weight := map[int]float64{}
		for _, g := range mirror.Groups() {
			for _, id := range g.Members {
				weight[id] = g.Weight
			}
		}
		for _, a := range at {
			for _, e := range a.entries {
				truth, ok := weight[e.Rep]
				// Float summation order differs between the sketch and the
				// closure, as in the server's own auditor.
				eps := 1e-9 * e.Count
				if eps < 1e-9 {
					eps = 1e-9
				}
				if !ok || truth > e.Count+eps || truth < e.Lower-eps {
					violations++
				}
			}
		}
		checked += len(at)
		delete(byEpoch, mirror.Len())
	}
	for _, r := range c.ds.prefix(c.seeded).Recs {
		mirror.Add(r.Weight, r.Truth, valuesOf(c.ds, r)...)
	}
	checkEpoch()
	for _, b := range c.applied {
		for _, r := range b {
			mirror.Add(weightOf(r), r.Truth, r.Values...)
		}
		checkEpoch()
	}
	if violations > 0 {
		fails = append(fails, fmt.Sprintf("%d served sketch intervals do not contain the closure weight", violations))
	}
	if checked != len(answers) {
		fails = append(fails, fmt.Sprintf("%d sketch answers name an epoch no acknowledged batch produced", len(answers)-checked))
	}

	body, _, err := get(ts, "/topk?k=10&mode=approx")
	if err != nil {
		return 0, append(fails, err.Error())
	}
	var ar server.ApproxTopKResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return 0, append(fails, "decoding approx answer: "+err.Error())
	}
	named := map[int]bool{}
	for _, e := range ar.Entries {
		named[e.Rep] = true
	}
	truth := mirror.Groups()
	if len(truth) > 10 {
		truth = truth[:10]
	}
	found := 0
	for _, g := range truth {
		for _, id := range g.Members {
			if named[id] {
				found++
				break
			}
		}
	}
	return ratio(float64(found), float64(len(truth))), fails
}
