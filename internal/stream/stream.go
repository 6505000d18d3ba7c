// Package stream maintains deduplication state incrementally over an
// evolving record source — the setting the paper's introduction motivates
// ("sources that are constantly evolving, or are otherwise too vast ...
// it is necessary to perform on-the-fly deduplication of only the
// relevant data subset").
//
// An Incremental accumulator keeps the level-1 sufficient-predicate
// collapse up to date as records arrive: each insertion is core.Insert,
// the batch collapse's own closure step, over the predicate's blocking
// keys, so the dominant cost of Algorithm 2's first phase is amortised
// over the feed and the maintained groups are batch's level-1 collapse,
// eval count included. TopK queries then run only the K-dependent
// phases (lower bound, prune, deeper levels) on the pre-collapsed state.
//
// The closure is one structure with one owner: the union-find Add
// maintains is also what decides which groups a publish has to rebuild.
// Add performed the unions, so it knows exactly which closures changed;
// Groups re-materialises those and reuses every other group verbatim
// (see INCREMENTAL.md). The contract is byte identity: Groups returns
// exactly what a from-scratch sweep over the accumulated records would.
package stream

import (
	"context"
	"fmt"
	"slices"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/intern"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Incremental is a growing dataset with an incrementally maintained
// sufficient-predicate collapse. Not safe for concurrent use.
type Incremental struct {
	data   *records.Dataset
	levels []predicate.Level
	uf     *dsu.DSU
	// tab interns the level-1 sufficient keys as they arrive; buckets is
	// indexed by key id and lists the record IDs carrying the key, in
	// arrival order — bucket lookup per insertion key is an array index,
	// not a string-map probe.
	tab     *intern.Table
	buckets [][]int32
	// seen is core.Insert's per-record stamp; keyIDs is the per-Add
	// interned-key scratch.
	seen   []int32
	keyIDs []uint32
	// evals counts sufficient-predicate evaluations (diagnostics).
	evals int64
	// sink receives the stream.* metrics and the query-time core.*
	// metrics (see SetMetrics).
	sink obs.Sink
	// closures is indexed by record id and non-nil exactly at the roots
	// of uf: the sufficient closure each root stands for (see closure).
	closures []*closure
}

// closure is one sufficient-closure component of the accumulator: its
// member record ids, the core.Group materialised from them by the last
// Groups call, and whether Add changed the membership since (a new
// record, or a union that folded another closure in).
type closure struct {
	members []int32
	group   core.Group
	dirty   bool
}

// New creates an empty accumulator with the given schema and predicate
// schedule (levels must be non-empty; level 1's sufficient predicate is
// the one maintained incrementally).
func New(name string, schema []string, levels []predicate.Level) (*Incremental, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("stream: at least one predicate level required")
	}
	return &Incremental{
		data:   records.New(name, schema...),
		levels: levels,
		uf:     dsu.NewGrowable(),
		tab:    intern.New(),
	}, nil
}

// Add appends one record and merges it with any existing sure-duplicate
// component: core.Insert, the one closure kernel, evaluates it against
// every earlier record sharing a blocking key that is not yet in its
// component. It returns the record's ID.
func (inc *Incremental) Add(weight float64, truth string, values ...string) int {
	rec := inc.data.Append(weight, truth, values...)
	id := inc.uf.Add()
	inc.closures = append(inc.closures, &closure{members: []int32{int32(id)}, dirty: true})
	inc.seen = append(inc.seen, 0)
	s := inc.levels[0].Sufficient
	inc.keyIDs = s.KeyIDs(inc.tab, rec, inc.keyIDs[:0])
	for len(inc.buckets) < inc.tab.Len() {
		inc.buckets = append(inc.buckets, nil)
	}
	recs := inc.data.Recs
	evals := core.Insert(inc.uf, inc.seen, id, inc.keyIDs,
		func(k uint32) []int32 { return inc.buckets[k] },
		func(j, i int) bool { return s.Eval(recs[j], recs[i]) },
		inc.mergeClosures)
	for _, key := range inc.keyIDs {
		// A key Keys lists twice enters its bucket once.
		if b := inc.buckets[key]; len(b) == 0 || b[len(b)-1] != int32(id) {
			inc.buckets[key] = append(b, int32(id))
		}
	}
	inc.evals += evals
	if inc.sink != nil {
		inc.sink.Count("stream.add.records", 1)
		inc.sink.Count("stream.add.evals", evals)
	}
	return id
}

// mergeClosures folds the closures of the two roots a union just joined
// into the one at the surviving root and marks it dirty. The union-find
// unions by size and a closure's size is its member count, so the
// survivor is the larger one and the append is small-to-large.
func (inc *Incremental) mergeClosures(ra, rb, survivor int) {
	dead := ra
	if dead == survivor {
		dead = rb
	}
	c := inc.closures[survivor]
	c.members = append(c.members, inc.closures[dead].members...)
	c.dirty = true
	inc.closures[dead] = nil
}

// SetMetrics attaches an observability sink: each Add emits the
// stream.add.records and stream.add.evals counters, each Groups emits
// the inc.delta.* rebuilt/reused group counts, and each TopK emits a
// stream.topk span plus the usual core.* per-phase metrics (see
// OBSERVABILITY.md). Pass nil to detach. Observational only — the
// accumulated state and query results are byte-identical with or
// without a sink.
func (inc *Incremental) SetMetrics(s obs.Sink) { inc.sink = s }

// EnableSketch does nothing: it is kept because the frozen benchmark
// harness (benchmark/replay.go) calls it.
func (inc *Incremental) EnableSketch(int) {}

// FlushSketchMetrics does nothing: it is kept because the frozen
// benchmark harness (benchmark/replay.go) calls it.
func (inc *Incremental) FlushSketchMetrics() {}

// Len returns the number of accumulated records.
func (inc *Incremental) Len() int { return inc.data.Len() }

// Evals returns the number of sufficient-predicate evaluations spent on
// incremental maintenance so far.
func (inc *Incremental) Evals() int64 { return inc.evals }

// Dataset exposes the accumulated records (read-only by convention; the
// engine and evaluation utilities can consume it directly).
func (inc *Incremental) Dataset() *records.Dataset { return inc.data }

// Groups materialises the current sure-duplicate components as collapsed
// groups, sorted by decreasing weight. The representative is the
// heaviest member. It is a delta rebuild: only closures Add changed
// since the previous call are re-materialised; every other group is
// reused verbatim.
//
// The result is byte-identical to a from-scratch sweep
// (TestStreamGroupsMatchScratch pins it): a rebuilt group visits its
// members in ascending record id — the order a global sweep meets them
// — so member order, float-summed weight and first-strict-max
// representative match, and the final (weight desc, rep asc) sort is a
// total order, making collection order irrelevant. A rebuilt group gets
// a fresh Members slice: the previous one may be shared, read-only, with
// a published Snapshot and is never written.
func (inc *Incremental) Groups() []core.Group {
	out := make([]core.Group, 0, inc.uf.Components())
	var rebuilt int64
	for _, c := range inc.closures {
		if c == nil {
			continue
		}
		if c.dirty {
			inc.rebuild(c)
			rebuilt++
		}
		out = append(out, c.group)
	}
	core.SortGroupsByWeight(out)
	if inc.sink != nil {
		inc.sink.Count("inc.delta.rebuilt_groups", rebuilt)
		inc.sink.Count("inc.delta.reused_groups", int64(len(out))-rebuilt)
	}
	return out
}

// rebuild re-materialises one closure's group from its members in
// ascending record-id order (see Groups for why that order is the
// byte-identity anchor).
func (inc *Incremental) rebuild(c *closure) {
	slices.Sort(c.members)
	first := inc.data.Recs[c.members[0]]
	g := core.Group{Rep: first.ID, Members: make([]int, len(c.members)), Weight: first.Weight}
	g.Members[0] = first.ID
	for i, m := range c.members[1:] {
		r := inc.data.Recs[m]
		g.Members[i+1] = r.ID
		g.Weight += r.Weight
		if r.Weight > inc.data.Recs[g.Rep].Weight {
			g.Rep = r.ID
		}
	}
	c.group, c.dirty = g, false
}

// TopK answers the TopK count query over the current state: the TopK of
// a Snapshot taken now, so only the K-dependent phases run and the
// result is the one a published snapshot serves. Its query-time phases
// run on all CPUs (Snapshot.TopKCtx with workers 0); a caller that needs
// another bound calls Snapshot().TopKCtx itself.
func (inc *Incremental) TopK(k int) (*core.Result, error) {
	return inc.TopKCtx(context.Background(), k)
}

// TopKCtx is TopK under a context. When ctx carries a trace span (see
// internal/obs), a stream.topk child span wraps the query and the
// K-dependent phases record their own spans beneath it; an untraced
// context adds no work.
func (inc *Incremental) TopKCtx(ctx context.Context, k int) (*core.Result, error) {
	return inc.Snapshot().TopKCtx(ctx, k, 0, inc.sink)
}
