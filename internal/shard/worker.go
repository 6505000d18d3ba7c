package shard

import (
	"context"
	"fmt"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Worker executes one shard's share of every PrunedDedup phase on the
// refactored core primitives, holding the per-level state (current
// grouping, bound scanner, pruner) between coordinator calls. The
// coordinator serialises calls to a Worker; a Worker is not safe for
// concurrent use.
//
// A Worker operates either on the shared global dataset (in-process
// transport: toGlobal nil, group member IDs global) or on a private
// shipped partition (remote transport: toGlobal maps ascending local
// record IDs to ascending global IDs). Because the mapping is monotone,
// every local tie-break — group sorting, collapse merge order, candidate
// enumeration — agrees with the global one, which is what makes the
// per-shard execution equal to the single-machine execution restricted
// to the shard's canopy components.
type Worker struct {
	data     *records.Dataset
	toGlobal []int // nil ⇒ record IDs are already global
	levels   []predicate.Level
	passes   int
	workers  int
	sink     obs.Sink

	level   int // current 0-based level, set by Collapse
	groups  []core.Group
	scanner *core.BoundScanner
	pruner  *core.Pruner
}

// NewWorker builds a shard worker over the given dataset and initial
// groups. toGlobal maps local record IDs to global ones (nil when the
// dataset is the shared global one); it must be strictly increasing.
func NewWorker(data *records.Dataset, toGlobal []int, groups []core.Group, levels []predicate.Level, opts Options) *Worker {
	passes := opts.PrunePasses
	if passes <= 0 {
		passes = 2
	}
	return &Worker{
		data: data, toGlobal: toGlobal, levels: levels,
		passes: passes, workers: opts.Workers, sink: opts.Sink,
		level: -1, groups: groups,
	}
}

// LoadRequest ships one shard's partition to a remote worker: the
// records it owns (ascending global ID, values aligned with Schema) and
// the initial groups in local record indices. The remote node
// reconstructs its predicate levels from its own configuration — Go
// predicates do not serialise — so coordinator and shards must be
// configured with the same domain.
type LoadRequest struct {
	// Session names the coordinator's query; later /shard/* calls quote it.
	Session string `json:"session"`
	// Schema is the dataset field schema, for validation against the
	// shard node's own.
	Schema []string `json:"schema"`
	// Records lists the shard's records in ascending global-ID order.
	Records []WireRecord `json:"records"`
	// Groups is the initial grouping in local record indices.
	Groups []LocalGroup `json:"groups"`
	// K is the query's TopK parameter.
	K int `json:"k"`
	// PrunePasses caps exact refinement rounds (0 = default).
	PrunePasses int `json:"prune_passes,omitempty"`
	// Workers bounds the shard's evaluation pool (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
}

// WireRecord is one shipped record of a shard partition.
type WireRecord struct {
	// GlobalID is the record's ID in the coordinator's dataset.
	GlobalID int `json:"id"`
	// Weight is the record's aggregation weight.
	Weight float64 `json:"w"`
	// Truth is the optional ground-truth label.
	Truth string `json:"truth,omitempty"`
	// Values are the field values in schema order.
	Values []string `json:"values"`
}

// LocalGroup is one initial group of a shipped partition, in local
// record indices (positions within LoadRequest.Records).
type LocalGroup struct {
	// Rep is the representative's local record index.
	Rep int `json:"rep"`
	// Members are the member local record indices (Rep included).
	Members []int `json:"members"`
	// Weight is the group's aggregate weight.
	Weight float64 `json:"w"`
}

// NewWorkerFromLoad reconstructs a Worker from a shipped partition,
// validating the schema and ID mapping. levels and sink come from the
// shard node's own configuration.
func NewWorkerFromLoad(req *LoadRequest, schema []string, levels []predicate.Level, sink obs.Sink) (*Worker, error) {
	if len(req.Schema) != len(schema) {
		return nil, fmt.Errorf("shard: load schema %v does not match node schema %v", req.Schema, schema)
	}
	for i := range schema {
		if req.Schema[i] != schema[i] {
			return nil, fmt.Errorf("shard: load schema %v does not match node schema %v", req.Schema, schema)
		}
	}
	d := records.New("shard-partition", schema...)
	toGlobal := make([]int, 0, len(req.Records))
	for i, wr := range req.Records {
		if len(wr.Values) != len(schema) {
			return nil, fmt.Errorf("shard: record %d has %d values for schema of %d fields", i, len(wr.Values), len(schema))
		}
		if i > 0 && wr.GlobalID <= req.Records[i-1].GlobalID {
			return nil, fmt.Errorf("shard: record global IDs must be strictly increasing")
		}
		d.Append(wr.Weight, wr.Truth, wr.Values...)
		toGlobal = append(toGlobal, wr.GlobalID)
	}
	groups := make([]core.Group, len(req.Groups))
	for i, lg := range req.Groups {
		if lg.Rep < 0 || lg.Rep >= d.Len() {
			return nil, fmt.Errorf("shard: group %d rep %d out of range", i, lg.Rep)
		}
		members := make([]int, len(lg.Members))
		for j, m := range lg.Members {
			if m < 0 || m >= d.Len() {
				return nil, fmt.Errorf("shard: group %d member %d out of range", i, m)
			}
			members[j] = m
		}
		groups[i] = core.Group{Rep: lg.Rep, Members: members, Weight: lg.Weight}
	}
	return NewWorker(d, toGlobal, groups, levels, Options{
		K: req.K, PrunePasses: req.PrunePasses, Workers: req.Workers, Sink: sink,
	}), nil
}

func (w *Worker) global(id int) int {
	if w.toGlobal == nil {
		return id
	}
	return w.toGlobal[id]
}

func (w *Worker) meta() []GroupMeta {
	metas := make([]GroupMeta, len(w.groups))
	for i, g := range w.groups {
		metas[i] = GroupMeta{Weight: g.Weight, Rep: w.global(g.Rep)}
	}
	return metas
}

// Collapse runs the 0-based level's sufficient-predicate collapse over
// the worker's current grouping, re-sorts into local rank order, resets
// any bound/prune state, and returns the new metadata plus the group
// count entering the collapse and the pairs verified/merged.
func (w *Worker) Collapse(level int) (metas []GroupMeta, before int, evals, hits int64) {
	w.level = level
	before = len(w.groups)
	w.groups, evals, hits = core.CollapseWorkersHits(w.data, w.groups, w.levels[level].Sufficient, w.workers)
	core.SortGroupsByWeight(w.groups)
	w.scanner = nil
	w.pruner = nil
	return w.meta(), before, evals, hits
}

// Bounds runs one bound-exchange sub-operation. BoundsScan consumes the
// worker's next Count groups in local rank order and returns, per group,
// its greedy-independence verdict and the necessary-predicate pairs it
// evaluated and hit (the scanner is created on the first scan after a
// Collapse); BoundsCPN returns the Algorithm-1 CPN lower bound of the
// first Prefix scanned groups (0 when nothing has been scanned). An
// unknown op, a negative Count or Prefix, or any op before the first
// Collapse is an error.
func (w *Worker) Bounds(req *BoundsRequest) (*BoundsResponse, error) {
	if w.level < 0 {
		return nil, fmt.Errorf("shard: bounds %q before any collapse", req.Op)
	}
	if req.Count < 0 || req.Prefix < 0 {
		return nil, fmt.Errorf("shard: bounds %q: count %d and prefix %d must not be negative", req.Op, req.Count, req.Prefix)
	}
	switch req.Op {
	case BoundsScan:
		if w.scanner == nil {
			w.scanner = core.NewBoundScanner(w.data, w.groups, w.levels[w.level].Necessary, w.workers)
		}
		resp := &BoundsResponse{}
		resp.Independent, resp.Evals, resp.Hits = w.scanner.ScanHits(req.Count)
		return resp, nil
	case BoundsCPN:
		if w.scanner == nil {
			return &BoundsResponse{}, nil
		}
		return &BoundsResponse{CPN: w.scanner.CPNAt(req.Prefix)}, nil
	}
	return nil, fmt.Errorf("shard: unknown bounds op %q", req.Op)
}

// Prune runs one prune sub-operation. PruneStart builds the prune state
// for the broadcast global bound M (running the evaluation-free
// cascades; M <= 0 or an empty grouping disables pruning for the level);
// PrunePass runs one exact Jacobi refinement pass (a traced ctx records
// its core.prune.pass span; zeros when pruning is disabled);
// PruneFinish retires the prune state, keeping only survivors, and
// returns their metadata in local rank order. Every answer carries the
// current unpruned group count. An unknown op, or any op before the
// first Collapse, is an error.
func (w *Worker) Prune(ctx context.Context, req *PruneRequest) (*PruneResponse, error) {
	if w.level < 0 {
		return nil, fmt.Errorf("shard: prune %q before any collapse", req.Op)
	}
	resp := &PruneResponse{}
	switch req.Op {
	case PruneStart:
		w.pruner = nil
		if req.M > 0 && len(w.groups) > 0 {
			w.pruner = core.NewPruner(w.data, w.groups, w.levels[w.level].Necessary, req.M, w.workers, w.sink)
		}
	case PrunePass:
		if w.pruner != nil {
			resp.Pruned, resp.Evals, resp.Hits = w.pruner.PassCtx(ctx)
		}
	case PruneFinish:
		if w.pruner != nil {
			w.groups = w.pruner.Alive()
			w.pruner = nil
		}
		resp.Groups = w.meta()
	default:
		return nil, fmt.Errorf("shard: unknown prune op %q", req.Op)
	}
	resp.Alive = len(w.groups)
	if w.pruner != nil {
		resp.Alive = w.pruner.AliveCount()
	}
	return resp, nil
}

// Groups returns the worker's current groups with global record IDs, in
// local rank order.
func (w *Worker) Groups() []WireGroup {
	out := make([]WireGroup, len(w.groups))
	for i, g := range w.groups {
		members := make([]int, len(g.Members))
		for j, m := range g.Members {
			members[j] = w.global(m)
		}
		out[i] = WireGroup{Rep: w.global(g.Rep), Members: members, Weight: g.Weight}
	}
	return out
}
