package strsim

import "sync"

// Memo memoises a pure function of a string: Get(s) computes the value
// on the first call for s and returns the stored one afterwards. It is
// the building block of Cache and of the domain predicates' per-record
// signatures (internal/domains) — whatever a predicate derives from a
// field value (a normalised key, an id slice) is computed once per
// distinct string, not once per pair.
//
// A Memo from NewMemo is safe for concurrent use: entries shard by a
// string hash, each shard guarded by its own RWMutex, so after warm-up
// every access is a read-lock on one shard. compute runs outside the
// lock; on a concurrent double-compute the first stored value wins, so
// all callers observe one canonical entry. Stored values are shared:
// callers must treat returned maps and slices as read-only.
type Memo[V any] struct {
	compute func(string) V
	shards  []memoShard[V]
	mask    uint32 // 0: one shard, no locking
}

type memoShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// memoShards is the shard count of a concurrent Memo (power of two).
// 16 shards keep write contention negligible for worker pools up to a
// few dozen goroutines while costing only a handful of empty maps.
const memoShards = 16

// NewMemo returns an empty concurrency-safe memo of compute.
func NewMemo[V any](compute func(string) V) *Memo[V] {
	return newMemo(true, compute)
}

// newMemo builds a memo with the locking discipline Cache was
// constructed with: shared memos shard and lock, unshared ones are a
// bare map for strictly serial code.
func newMemo[V any](shared bool, compute func(string) V) *Memo[V] {
	n := 1
	if shared {
		n = memoShards
	}
	m := &Memo[V]{compute: compute, shards: make([]memoShard[V], n), mask: uint32(n - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

// Get returns the memoised compute(s).
func (m *Memo[V]) Get(s string) V {
	if m.mask == 0 {
		sh := &m.shards[0]
		if v, ok := sh.m[s]; ok {
			return v
		}
		v := m.compute(s)
		sh.m[s] = v
		return v
	}
	// FNV-1a, inlined to avoid allocating a hasher on every lookup.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	sh := &m.shards[h&m.mask]
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = m.compute(s)
	sh.mu.Lock()
	if prev, ok := sh.m[s]; ok {
		v = prev
	} else {
		sh.m[s] = v
	}
	sh.mu.Unlock()
	return v
}
