package predicate

import (
	"topkdedup/internal/intern"
	"topkdedup/internal/records"
)

// Keyspace is one blocking-key namespace of a canopy union-find: its own
// intern table (so the keys of different predicates or levels cannot
// collide) and the first item seen per key id. One union against the
// first carrier of each key yields the same transitive closure as
// unioning every pair sharing the key. The zero value is ready to use.
type Keyspace struct {
	tab   *intern.Table
	owner []int32
}

// KeyIDs interns p's blocking keys of r into this namespace (P.KeyIDs on
// the namespace's own table).
func (ks *Keyspace) KeyIDs(p P, r *records.Record, dst []uint32) []uint32 {
	if ks.tab == nil {
		ks.tab = intern.New()
	}
	return p.KeyIDs(ks.tab, r, dst)
}

// Claim registers item as a carrier of every key id: an id nobody
// carried yet becomes item's, and for each id already owned union is
// called with item and the id's first carrier. ids come from KeyIDs or
// from any one table the caller uses consistently for this namespace.
func (ks *Keyspace) Claim(item int, ids []uint32, union func(a, b int)) {
	for _, id := range ids {
		for int(id) >= len(ks.owner) {
			ks.owner = append(ks.owner, -1)
		}
		if own := ks.owner[id]; own >= 0 {
			union(item, int(own))
		} else {
			ks.owner[id] = int32(item)
		}
	}
}
