package server

import (
	"context"
	"fmt"
	"sync"

	topk "topkdedup"
)

// Answer-cache statuses, reported in the X-Cache response header of
// /topk and /rank and counted under the inc.cache.* metrics.
const (
	// cacheHit: the answer was memoised for this epoch — served in
	// microseconds without running any pipeline phase.
	cacheHit = "hit"
	// cacheMiss: first query of this (epoch, parameters) key — computed
	// and stored for subsequent hits.
	cacheMiss = "miss"
	// cacheCoalesced: an identical query was already in flight on the
	// same epoch; this request waited for that one computation
	// (singleflight) instead of duplicating it.
	cacheCoalesced = "coalesced"
	// cacheBypass: the request did not use the memo (?explain=1 needs a
	// fresh trace; /rank?k= on an empty epoch has nothing to compute).
	cacheBypass = "bypass"
)

// memoLimit is the most entries one epoch's memo holds. serve_read asks
// 10 keys an epoch and serve_mixed 6, so only a sweep of distinct k or t
// fills it; inserting into a full memo clears it first, so the sweep
// holds bounded memory and costs a hot key at most one recompute per
// memoLimit new keys.
const memoLimit = 32

// answerKey identifies one memoisable computation within an epoch: the
// kind ('t' /topk, 'k' /rank?k=, 'r' /rank?t=, 'p' the pruning for K
// that 't' and 'k' finish from) plus its parameters. The epoch is not
// part of the key: every epoch owns its memo.
type answerKey struct {
	kind byte
	k, r int
	t    float64
}

// answerEntry is one in-flight or finished computation. The owner (the
// lookup that got cacheMiss) writes the result field of its kind and
// err, then closes done; hits and coalesced waiters only read them after
// done is closed, so the channel close is the publication barrier.
type answerEntry struct {
	done   chan struct{}
	topk   *topk.Result
	rank   *topk.RankResult
	pruned *topk.PrunedResult
	err    error
}

// answerCache is one epoch's memo, with singleflight coalescing of
// identical concurrent misses. Entries are immutable once done is
// closed; an errored computation is removed before the close, so a
// cacheHit never observes an error. It holds at most memoLimit entries
// and is freed with its epoch. The zero value is ready to use.
type answerCache struct {
	mu      sync.Mutex
	entries map[answerKey]*answerEntry
}

// begin resolves one lookup: cacheHit with a finished entry,
// cacheCoalesced with an in-flight entry to wait on, or cacheMiss with
// a fresh entry the caller now owns (it must call finish exactly once).
func (c *answerCache) begin(key answerKey) (string, *answerEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[key]; ok {
		select {
		case <-ent.done:
			return cacheHit, ent
		default:
			return cacheCoalesced, ent
		}
	}
	if c.entries == nil {
		c.entries = make(map[answerKey]*answerEntry)
	}
	if len(c.entries) >= memoLimit {
		clear(c.entries)
	}
	ent := &answerEntry{done: make(chan struct{})}
	c.entries[key] = ent
	return cacheMiss, ent
}

// finish publishes a cacheMiss owner's outcome: the caller has set the
// entry's result field and err; an error evicts the entry (errors are
// not memoised) before waking the waiters.
func (c *answerCache) finish(key answerKey, ent *answerEntry) {
	if ent.err != nil {
		c.mu.Lock()
		if c.entries[key] == ent {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(ent.done)
}

// size returns the current entry count (for the inc.cache.entries
// gauge).
func (c *answerCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// answer is the read path's one lookup-or-compute step, on ep's memo. A
// hit returns the kept entry. A miss owns a fresh entry: compute fills
// its result field, and the entry is kept, or evicted if compute failed.
// A coalesced lookup waits for the owner, or until ctx is done.
//
// With background set, answer does not wait: a coalesced lookup returns
// a nil entry at once, and a miss runs compute on a goroutine Close
// waits for and returns a nil entry before it finishes.
//
// Every lookup refreshes the inc.cache.entries gauge. Lookups of a query
// ('t', 'k', 'r') are counted under inc.cache.<status>, the verdict the
// X-Cache header reports; a pruning lookup ('p') is a step inside one
// and is not.
func (s *Server) answer(ctx context.Context, ep *epoch, key answerKey, background bool, compute func(*answerEntry) error) (*answerEntry, string, error) {
	status, ent := ep.cache.begin(key)
	if key.kind != 'p' {
		switch status {
		case cacheHit:
			s.metrics.Count("inc.cache.hit", 1)
		case cacheMiss:
			s.metrics.Count("inc.cache.miss", 1)
		case cacheCoalesced:
			s.metrics.Count("inc.cache.coalesced", 1)
		}
	}
	s.metrics.Gauge("inc.cache.entries", float64(ep.cache.size()))
	switch status {
	case cacheMiss:
		run := func() {
			ent.err = compute(ent)
			ep.cache.finish(key, ent)
		}
		if background {
			s.bg.Add(1)
			go func() {
				defer s.bg.Done()
				run()
			}()
			return nil, status, nil
		}
		run()
	case cacheCoalesced:
		if background {
			return nil, status, nil
		}
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, status, fmt.Errorf("canceled while waiting for coalesced query: %w", ctx.Err())
		}
	}
	return ent, status, ent.err
}
