package shard

import (
	"context"

	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Transport carries the coordinator's calls to the S shard executors.
// The coordinator serialises calls per shard but fans out across shards
// concurrently, so implementations must tolerate concurrent calls with
// distinct shard indices (calls for one shard never overlap). The two
// implementations are NewInProcess (direct Worker calls in one address
// space) and NewHTTP (the /shard/* endpoints of internal/server).
//
// Every call takes the coordinator's context: when it carries a trace
// span (see internal/obs), the in-process transport wraps each worker
// operation in a shard.worker.* span, and the HTTP transport forwards
// the span as a Traceparent header so remote nodes record their side of
// the work into the same trace (stitched back by RunHTTPCtx).
type Transport interface {
	// Shards returns the shard count S; shard indices are 0..S-1.
	Shards() int
	// Collapse runs the given 0-based level's sufficient-predicate
	// collapse on one shard and returns the shard's re-sorted group
	// metadata.
	Collapse(ctx context.Context, shard, level int) (*CollapseResponse, error)
	// Bounds runs one bound-exchange sub-operation (a scan block or a
	// prefix-CPN probe) on one shard.
	Bounds(ctx context.Context, shard int, req *BoundsRequest) (*BoundsResponse, error)
	// Prune runs one prune sub-operation (start, one Jacobi pass, or
	// finish) on one shard.
	Prune(ctx context.Context, shard int, req *PruneRequest) (*PruneResponse, error)
	// Groups fetches one shard's surviving groups with full member lists
	// in global record IDs.
	Groups(ctx context.Context, shard int) (*GroupsResponse, error)
	// Close releases per-query shard state (remote sessions); the
	// transport is unusable afterwards.
	Close() error
}

// GroupMeta is the per-group metadata shards exchange with the
// coordinator: just enough to place the group in the global rank order
// (weight descending, representative ascending) without shipping member
// lists. Rep is always a global record ID, so coordinator-side ties
// break exactly as they would in a single-machine sort.
type GroupMeta struct {
	// Weight is the group's aggregate weight.
	Weight float64 `json:"w"`
	// Rep is the global record ID of the group representative.
	Rep int `json:"rep"`
}

// CollapseResponse is one shard's answer to a Collapse call.
type CollapseResponse struct {
	// Groups is the shard's collapsed grouping in local rank order.
	Groups []GroupMeta `json:"groups"`
	// Evals counts the sufficient-predicate pairs the collapse verified.
	Evals int64 `json:"evals"`
	// Hits counts the pairs that evaluated true and merged.
	Hits int64 `json:"hits,omitempty"`
	// Before is the shard's group count entering the collapse.
	Before int `json:"before,omitempty"`
}

// Bounds operations.
const (
	// BoundsScan consumes the shard's next Count groups in local rank
	// order and returns their greedy-independence verdicts.
	BoundsScan = "scan"
	// BoundsCPN returns the Algorithm-1 CPN lower bound of the shard's
	// first Prefix scanned groups.
	BoundsCPN = "cpn"
)

// BoundsRequest selects one bound-exchange sub-operation.
type BoundsRequest struct {
	// Session identifies the coordinator's query on remote transports
	// (ignored in-process).
	Session string `json:"session,omitempty"`
	// Op is BoundsScan or BoundsCPN.
	Op string `json:"op"`
	// Count is the number of groups to scan (BoundsScan).
	Count int `json:"count,omitempty"`
	// Prefix is the local prefix length to bound (BoundsCPN).
	Prefix int `json:"prefix,omitempty"`
}

// BoundsResponse is one shard's answer to a Bounds call.
type BoundsResponse struct {
	// Independent holds one greedy-independence verdict per scanned
	// group, in local rank order (BoundsScan).
	Independent []bool `json:"independent,omitempty"`
	// Evals counts, per scanned group, the necessary-predicate pairs the
	// scan evaluated. Per group, not per call: the coordinator counts
	// only the groups it consumes before the bound is certified, which is
	// what makes a sharded run's BoundEvals the single-machine one.
	Evals []int64 `json:"evals,omitempty"`
	// Hits counts, per scanned group, the pairs that evaluated true
	// (prefix-graph edges).
	Hits []int64 `json:"hits,omitempty"`
	// CPN is the prefix bound (BoundsCPN).
	CPN int `json:"cpn,omitempty"`
}

// Prune operations.
const (
	// PruneStart builds the shard's prune state for the broadcast global
	// bound M (the evaluation-free cascades run here).
	PruneStart = "start"
	// PrunePass runs one exact Jacobi refinement pass.
	PrunePass = "pass"
	// PruneFinish retires the prune state and returns the surviving
	// groups' metadata in local rank order.
	PruneFinish = "finish"
)

// PruneRequest selects one prune sub-operation.
type PruneRequest struct {
	// Session identifies the coordinator's query on remote transports
	// (ignored in-process).
	Session string `json:"session,omitempty"`
	// Op is PruneStart, PrunePass, or PruneFinish.
	Op string `json:"op"`
	// M is the broadcast global lower bound (PruneStart).
	M float64 `json:"m,omitempty"`
}

// PruneResponse is one shard's answer to a Prune call.
type PruneResponse struct {
	// Alive is the shard's current unpruned group count.
	Alive int `json:"alive"`
	// Pruned is how many groups the pass killed (PrunePass).
	Pruned int `json:"pruned,omitempty"`
	// Evals counts the necessary-predicate pairs the pass evaluated.
	Evals int64 `json:"evals,omitempty"`
	// Hits counts the pairs that evaluated true (confirmed neighbours).
	Hits int64 `json:"hits,omitempty"`
	// Groups is the surviving metadata (PruneFinish).
	Groups []GroupMeta `json:"groups,omitempty"`
}

// WireGroup is a full group in global record IDs, as returned by the
// final Groups fetch.
type WireGroup struct {
	// Rep is the global record ID of the representative.
	Rep int `json:"rep"`
	// Members are the global record IDs of all members (Rep included).
	Members []int `json:"members"`
	// Weight is the group's aggregate weight.
	Weight float64 `json:"w"`
}

// GroupsResponse is one shard's answer to the final Groups fetch.
type GroupsResponse struct {
	// Groups lists the shard's surviving groups in local rank order.
	Groups []WireGroup `json:"groups"`
}

// InProcess is the single-binary Transport: every shard is a Worker in
// the calling process, sharing the global dataset (no copying and no
// serialisation — workers index the same record structs and group
// member IDs stay global throughout).
type InProcess struct {
	ws []*Worker
}

// NewInProcess builds one in-process Worker per partition shard over the
// shared dataset.
func NewInProcess(d *records.Dataset, parts *Partition, levels []predicate.Level, opts Options) *InProcess {
	ws := make([]*Worker, len(parts.Parts))
	for i, part := range parts.Parts {
		ws[i] = NewWorker(d, nil, part.Groups, levels, opts)
	}
	return &InProcess{ws: ws}
}

// Shards returns the shard count.
func (t *InProcess) Shards() int { return len(t.ws) }

// workerSpan opens one shard.worker.* span tagged with the shard index
// (the per-shard wall-time unit of the EXPLAIN report). The remote
// transport's equivalent spans are recorded handler-side and tagged by
// node at stitch time instead.
func workerSpan(ctx context.Context, name string, shard int) (context.Context, *obs.TraceSpan) {
	ctx, sp := obs.StartChild(ctx, name)
	if sp != nil {
		sp.Attr("shard", float64(shard))
	}
	return ctx, sp
}

// Collapse implements Transport by direct Worker call.
func (t *InProcess) Collapse(ctx context.Context, shard, level int) (*CollapseResponse, error) {
	_, sp := workerSpan(ctx, "shard.worker.collapse", shard)
	metas, before, evals, hits := t.ws[shard].Collapse(level)
	sp.End()
	return &CollapseResponse{Groups: metas, Evals: evals, Hits: hits, Before: before}, nil
}

// Bounds implements Transport by direct Worker call; a CPN probe is too
// short to be worth a span.
func (t *InProcess) Bounds(ctx context.Context, shard int, req *BoundsRequest) (*BoundsResponse, error) {
	if req.Op != BoundsCPN {
		_, sp := workerSpan(ctx, "shard.worker.bounds", shard)
		defer sp.End()
	}
	return t.ws[shard].Bounds(req)
}

// Prune implements Transport by direct Worker call; PruneFinish only
// hands back metadata and gets no span.
func (t *InProcess) Prune(ctx context.Context, shard int, req *PruneRequest) (*PruneResponse, error) {
	if req.Op != PruneFinish {
		var sp *obs.TraceSpan
		ctx, sp = workerSpan(ctx, "shard.worker.prune", shard)
		defer sp.End()
	}
	return t.ws[shard].Prune(ctx, req)
}

// Groups implements Transport by direct Worker call.
func (t *InProcess) Groups(ctx context.Context, shard int) (*GroupsResponse, error) {
	_, sp := workerSpan(ctx, "shard.worker.groups", shard)
	g := t.ws[shard].Groups()
	sp.End()
	return &GroupsResponse{Groups: g}, nil
}

// Close implements Transport; in-process workers need no teardown.
func (t *InProcess) Close() error { return nil }
