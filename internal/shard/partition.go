package shard

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/intern"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// ShardPart is one shard's slice of the initial grouping.
type ShardPart struct {
	// GroupIndex lists the indices (into the Split input slice) of the
	// initial groups assigned to this shard, ascending. Order matters:
	// it keeps the shard's groups in the input's relative order, which
	// preserves every tie-break downstream.
	GroupIndex []int
	// Groups are the corresponding initial groups.
	Groups []core.Group
}

// Partition is a canopy-closed assignment of initial groups to shards.
type Partition struct {
	// Parts has one entry per shard; shards left empty by the hash
	// assignment are present with zero groups.
	Parts []ShardPart
	// Components is the number of canopy-closure components (the
	// finest-grained parallelism the blocking keys admit; when it is
	// less than the shard count, some shards stay empty).
	Components int
}

// Split partitions the initial groups into s canopy-closed shards.
//
// The partitioning invariant every later phase relies on: no two groups
// that could ever share an index bucket — at any level, for the
// sufficient or the necessary predicate — land on different shards. It
// is established by a closure pass: groups whose representatives share
// any blocking key of any level's predicates are unioned, and whole
// union components are assigned to shards by a hash of the component's
// canonical representative. The closure computed on the *initial*
// representatives covers every later level because collapse only ever
// promotes the representative of a merged group to one of its member
// groups' representatives (the heaviest's), so the representative set
// never leaves the initial one and every key a later level will block
// on was already included here. Keys are namespaced per (level, role)
// so predicates with overlapping key vocabularies do not merge
// components spuriously.
//
// The assignment is deterministic in the dataset and shard count —
// FNV-1a of the canonical representative's global record ID — so
// coordinator and tests can re-derive it at will.
func Split(d *records.Dataset, groups []core.Group, levels []predicate.Level, s int) *Partition {
	if s < 1 {
		s = 1
	}
	uf := dsu.New(len(groups))
	spaces := make([]keyspace, 2*len(levels)) // one per (level, role)
	for gi := range groups {
		rec := d.Recs[groups[gi].Rep]
		for li, level := range levels {
			for role, p := range [2]predicate.P{level.Sufficient, level.Necessary} {
				spaces[2*li+role].claim(p, rec, gi, uf)
			}
		}
	}

	parts := make([]ShardPart, s)
	comps := uf.GroupSlices()
	h := fnv.New64a()
	var idBuf [8]byte
	for _, comp := range comps {
		// Canonical component ID: the representative record of the
		// component's smallest group index (GroupSlices orders members
		// ascending, components by smallest member).
		h.Reset()
		binary.BigEndian.PutUint64(idBuf[:], uint64(groups[comp[0]].Rep))
		h.Write(idBuf[:])
		sh := int(h.Sum64() % uint64(s))
		parts[sh].GroupIndex = append(parts[sh].GroupIndex, comp...)
	}
	for i := range parts {
		p := &parts[i]
		sort.Ints(p.GroupIndex)
		p.Groups = make([]core.Group, len(p.GroupIndex))
		for j, gi := range p.GroupIndex {
			p.Groups[j] = groups[gi]
		}
	}
	return &Partition{Parts: parts, Components: len(comps)}
}

// keyspace is one blocking-key namespace of Split's closure pass: its
// own intern table (so the keys of different predicates or levels cannot
// collide) and the first group seen per key id. One union against the
// first carrier of each key yields the same transitive closure as
// unioning every pair sharing the key. The zero value is ready to use.
type keyspace struct {
	tab   *intern.Table
	owner []int32
	ids   []uint32
}

// claim registers item as a carrier of each of p's blocking keys of r: a
// key nobody carried yet becomes item's, and for each key already owned
// item is unioned with the key's first carrier.
func (ks *keyspace) claim(p predicate.P, r *records.Record, item int, uf *dsu.DSU) {
	if ks.tab == nil {
		ks.tab = intern.New()
	}
	ks.ids = p.KeyIDs(ks.tab, r, ks.ids[:0])
	for _, id := range ks.ids {
		for int(id) >= len(ks.owner) {
			ks.owner = append(ks.owner, -1)
		}
		if own := ks.owner[id]; own >= 0 {
			uf.Union(item, int(own))
		} else {
			ks.owner[id] = int32(item)
		}
	}
}
