// Package intern provides a string-interning table mapping distinct key
// strings to dense uint32 ids. The pruning pipeline's blocking keys and
// q-grams repeat heavily — every group contributes the same handful of
// gram keys over and over — so the hot phases (index build, candidate
// walks, bucket-total cascades) pay string hashing and map probing for
// work that is really integer indexing. A Table outlives the keys'
// arrival: ids are assigned in first-seen order, so the same key sequence
// always yields the same ids, and the id space is dense [0, Len()), so
// every downstream structure can be a plain slice indexed by id instead
// of a string-keyed map. The streaming accumulator keeps one for level
// 1's sufficient keys, grown record by record; a strsim.Cache keeps one
// for its grams and one for its tokens; and a domain predicate whose key
// is one function of one field value keeps one for its key texts
// (internal/domains). The gram ids and the key-text ids are what an
// index build (predicate.P.Block) reads and renumbers: it hashes no key
// string for them, and interns into a call-local map only the keys of a
// predicate that has no ids.
//
// Concurrency: Intern takes a write lock and may be called from multiple
// goroutines during the build phase; Lookup/Key/Len take a read lock and
// are safe to call concurrently with each other and with Intern. The
// intended discipline, though, is build-then-read: intern every key once
// during setup, then run the hot loops on ids alone.
package intern

import (
	"fmt"
	"math"
	"sync"
)

// maxKeys caps the id space at the uint32 range. A variable (not a
// const) so the capacity-guard test can exercise the overflow path
// without interning 2³² strings.
var maxKeys uint32 = math.MaxUint32

// Table maps key strings to dense uint32 ids, assigned in first-seen
// order. The zero value is not usable; call New.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	keys []string
}

// New returns an empty table.
func New() *Table {
	return &Table{ids: make(map[string]uint32)}
}

// Intern returns the id of key, assigning the next dense id on first
// sight. Ids are stable for a given insertion sequence: rebuilding a
// table from the same key stream yields identical ids. Intern panics if
// the table already holds 2³²−1 distinct keys — the uint32 id space is
// exhausted and every downstream dense structure would overflow with it.
func (t *Table) Intern(key string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.ids[key]; ok { // raced with another Intern
		return id
	}
	if uint32(len(t.keys)) >= maxKeys {
		panic(fmt.Sprintf("intern: table full (%d distinct keys; uint32 id space exhausted)", len(t.keys)))
	}
	id = uint32(len(t.keys))
	t.ids[key] = id
	t.keys = append(t.keys, key)
	return id
}

// InternAll appends the ids of keys to dst (interning unseen ones) and
// returns the extended slice. The id order matches the key order.
func (t *Table) InternAll(dst []uint32, keys []string) []uint32 {
	for _, k := range keys {
		dst = append(dst, t.Intern(k))
	}
	return dst
}

// AppendKeys appends the strings of ids to dst and returns the extended
// slice, the inverse of InternAll. It panics on ids never returned by
// Intern.
func (t *Table) AppendKeys(dst []string, ids []uint32) []string {
	t.mu.RLock()
	for _, id := range ids {
		dst = append(dst, t.keys[id])
	}
	t.mu.RUnlock()
	return dst
}

// Lookup returns the id of key and whether it has been interned, without
// ever assigning a new id.
func (t *Table) Lookup(key string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[key]
	t.mu.RUnlock()
	return id, ok
}

// Key returns the string a given id was assigned to. It panics on ids
// never returned by Intern.
func (t *Table) Key(id uint32) string {
	t.mu.RLock()
	k := t.keys[id]
	t.mu.RUnlock()
	return k
}

// Len returns the number of distinct interned keys — the size of the
// dense id space [0, Len()).
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.keys)
	t.mu.RUnlock()
	return n
}
