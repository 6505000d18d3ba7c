package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	topk "topkdedup"
	"topkdedup/internal/shard"
)

// maxShardSessions caps how many coordinator sessions one node holds at
// once; loading past the cap evicts the least recently used session
// (coordinators that lose theirs get a clean "unknown session" error
// and can re-load).
const maxShardSessions = 8

// shardSession is one coordinator's loaded partition. The coordinator
// serialises calls within a session; the per-session mutex makes a
// misbehaving client fail safe rather than race the worker.
type shardSession struct {
	mu       sync.Mutex
	worker   *shard.Worker
	lastUsed time.Time
}

// shardedPruned runs one query's pruning phases over the configured
// shard peers: partition the epoch's snapshot, ship the parts, drive
// the bound-exchange protocol, gather the survivors. The result feeds
// Engine.TopKFrom / TopKRankFrom. When ctx carries a trace span the
// whole exchange — including each peer's handler spans, stitched back
// after the run — lands in that trace.
func (s *Server) shardedPruned(ctx context.Context, ep *epoch, k int) (*topk.PrunedResult, error) {
	pd, _, err := shard.RunHTTPCtx(ctx, ep.snap.Dataset(), nil, s.cfg.Levels, s.cfg.ShardPeers, s.shardClient, shard.Options{
		K: k, PrunePasses: s.cfg.Engine.PrunePasses, Workers: s.cfg.Engine.Workers, Sink: s.metrics,
		Replicate: s.cfg.ShardReplicate, Replica: s.cfg.ShardReplica,
		WrapTransport: s.cfg.wrapShardTransport,
	})
	return pd, err
}

// getShardSession looks a session up and refreshes its LRU stamp.
func (s *Server) getShardSession(id string) (*shardSession, error) {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	ss, ok := s.shardSessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown shard session %q (evicted or never loaded)", id)
	}
	ss.lastUsed = time.Now()
	return ss, nil
}

// handleShardLoad accepts a coordinator's partition (shard.LoadRequest),
// builds the session's worker against this node's own levels, and
// registers it, evicting the least recently used session past the cap.
func (s *Server) handleShardLoad(w http.ResponseWriter, r *http.Request) {
	_, sp := s.shardSpan(r, "shard.worker.load")
	var req shard.LoadRequest
	body := http.MaxBytesReader(w, r.Body, 256<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad load body: "+err.Error())
		return
	}
	if req.Session == "" {
		sp.End()
		writeError(w, http.StatusBadRequest, "session is required")
		return
	}
	worker, err := shard.NewWorkerFromLoad(&req, s.cfg.Schema, s.cfg.Levels, s.metrics)
	if err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.shardMu.Lock()
	if _, ok := s.shardSessions[req.Session]; !ok && len(s.shardSessions) >= maxShardSessions {
		oldest, oldestAt := "", time.Time{}
		for id, ss := range s.shardSessions {
			if oldest == "" || ss.lastUsed.Before(oldestAt) {
				oldest, oldestAt = id, ss.lastUsed
			}
		}
		delete(s.shardSessions, oldest)
		s.metrics.Count("server.shard.sessions.evicted", 1)
	}
	s.shardSessions[req.Session] = &shardSession{worker: worker, lastUsed: time.Now()}
	active := len(s.shardSessions)
	s.shardMu.Unlock()
	s.metrics.Count("server.shard.sessions.opened", 1)
	s.metrics.Gauge("server.shard.sessions.active", float64(active))
	sp.Attr("records", float64(len(req.Records)))
	sp.End()
	writeJSON(w, http.StatusOK, shard.LoadResponse{Records: len(req.Records), Groups: len(req.Groups)})
}

func (s *Server) handleShardCollapse(w http.ResponseWriter, r *http.Request) {
	_, sp := s.shardSpan(r, "shard.worker.collapse")
	var req shard.CollapseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad collapse body: "+err.Error())
		return
	}
	if req.Level < 0 || req.Level >= len(s.cfg.Levels) {
		sp.End()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("level %d out of range for %d configured levels", req.Level, len(s.cfg.Levels)))
		return
	}
	ss, err := s.getShardSession(req.Session)
	if err != nil {
		sp.End()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	ss.mu.Lock()
	metas, before, evals, hits := ss.worker.Collapse(req.Level)
	ss.mu.Unlock()
	sp.End()
	writeJSON(w, http.StatusOK, shard.CollapseResponse{Groups: metas, Evals: evals, Hits: hits, Before: before})
}

func (s *Server) handleShardBounds(w http.ResponseWriter, r *http.Request) {
	_, sp := s.shardSpan(r, "shard.worker.bounds")
	var req shard.BoundsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad bounds body: "+err.Error())
		return
	}
	ss, err := s.getShardSession(req.Session)
	if err != nil {
		sp.End()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	ss.mu.Lock()
	resp, err := ss.worker.Bounds(&req)
	ss.mu.Unlock()
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardPrune(w http.ResponseWriter, r *http.Request) {
	ctx, sp := s.shardSpan(r, "shard.worker.prune")
	var req shard.PruneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad prune body: "+err.Error())
		return
	}
	ss, err := s.getShardSession(req.Session)
	if err != nil {
		sp.End()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	ss.mu.Lock()
	resp, err := ss.worker.Prune(ctx, &req)
	ss.mu.Unlock()
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardGroups(w http.ResponseWriter, r *http.Request) {
	_, sp := s.shardSpan(r, "shard.worker.groups")
	var req shard.GroupsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad groups body: "+err.Error())
		return
	}
	ss, err := s.getShardSession(req.Session)
	if err != nil {
		sp.End()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	ss.mu.Lock()
	groups := ss.worker.Groups()
	ss.mu.Unlock()
	sp.End()
	writeJSON(w, http.StatusOK, shard.GroupsResponse{Groups: groups})
}

func (s *Server) handleShardClose(w http.ResponseWriter, r *http.Request) {
	_, sp := s.shardSpan(r, "shard.worker.close")
	var req shard.CloseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, "bad close body: "+err.Error())
		return
	}
	s.shardMu.Lock()
	_, existed := s.shardSessions[req.Session]
	delete(s.shardSessions, req.Session)
	active := len(s.shardSessions)
	s.shardMu.Unlock()
	s.metrics.Gauge("server.shard.sessions.active", float64(active))
	sp.End()
	writeJSON(w, http.StatusOK, shard.CloseResponse{Closed: existed})
}
