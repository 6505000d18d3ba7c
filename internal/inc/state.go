// Package inc maintains persistent deduplication state across epoch
// publishes: a canopy union-find over every record ever ingested and the
// level-1 sufficient collapse per canopy component. Ingest marks the
// components a new record touches dirty; Groups rebuilds only those and
// reuses every untouched component's collapsed groups verbatim (see
// INCREMENTAL.md).
//
// The contract is byte identity: Groups returns exactly what a
// from-scratch sweep over the accumulated records would. Only
// collapse-phase eval counters may differ from the batch pipeline —
// those depend on global evaluation interleaving, not on the answer
// (INCREMENTAL.md §5).
package inc

import (
	"slices"
	"time"

	"topkdedup/internal/core"
	"topkdedup/internal/dsu"
	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// component is one canopy component: its member record ids, the level-1
// sufficient collapse of those members, and whether the collapse needs
// rebuilding because ingest touched the component since the last Groups.
type component struct {
	members []int32
	groups  []core.Group
	dirty   bool
}

// State is the persistent incremental dedup state. It is not safe for
// concurrent use — the owning accumulator serialises Observe and Groups
// (stream.Incremental calls them under the server's ingest lock).
//
// Canopy components are connected components over the level-1 sufficient
// AND necessary blocking keys. Deeper levels never consult this state
// (they run from scratch on the tiny survivor sets), so coarsening the
// canopy with their keys would shrink reuse without buying correctness.
// The invariant that follows from the keyspace choice: every
// sufficient-collapse union stays inside one component
// (predicate.P.Keys completeness: Eval true implies a shared key), so
// dirty tracking by component is complete for Groups.
type State struct {
	data   *records.Dataset
	canopy *dsu.DSU
	// suf and nec are the canopy's two blocking-key namespaces: level 1's
	// sufficient keys (ids handed to Observe by the accumulator, which
	// interns them for its own collapse) and its necessary keys (ids from
	// nec's own table). necP is the zero P under an empty schedule.
	suf, nec predicate.Keyspace
	necP     predicate.P
	comps    map[int]*component
	keyIDs   []uint32
	sink     obs.Sink
}

// NewState creates empty incremental state over the dataset the caller
// appends to. Records must be handed to Observe in append order, each
// exactly once. levels drives the canopy keyspaces (level 1's sufficient
// and necessary predicates); an empty schedule yields singleton
// components only.
func NewState(data *records.Dataset, levels []predicate.Level) *State {
	st := &State{
		data:   data,
		canopy: dsu.NewGrowable(),
		comps:  make(map[int]*component),
	}
	if len(levels) > 0 {
		st.necP = levels[0].Necessary
	}
	return st
}

// SetMetrics attaches an observability sink for the inc.delta.* metrics
// Groups emits (see OBSERVABILITY.md). Pass nil to detach. Observational
// only: state and query results are byte-identical with or without it.
func (st *State) SetMetrics(s obs.Sink) { st.sink = s }

// Components returns the current number of canopy components.
func (st *State) Components() int { return len(st.comps) }

// Observe folds one appended record into the canopy: it unions the
// record with the first user of each of its level-1 blocking keys and
// marks every component it lands in or merges away as dirty. sufKeyIDs
// are the record's level-1 sufficient keys as the caller interned them
// (any one table, used for every call); the necessary keys are interned
// here. Must be called once per record, in record-id order, after the
// dataset append.
func (st *State) Observe(rec *records.Record, sufKeyIDs []uint32) {
	id := rec.ID
	for st.canopy.Len() <= id {
		st.canopy.Add()
	}
	st.comps[id] = &component{members: []int32{int32(id)}, dirty: true}
	st.suf.Claim(id, sufKeyIDs, st.union)
	if st.necP.Keys != nil {
		st.keyIDs = st.nec.KeyIDs(st.necP, rec, st.keyIDs[:0])
		st.nec.Claim(id, st.keyIDs, st.union)
	}
}

// union merges the components of records a and b (no-op when already
// together).
func (st *State) union(a, b int) {
	ra, rb := st.canopy.Find(a), st.canopy.Find(b)
	if ra == rb {
		return
	}
	ca, cb := st.comps[ra], st.comps[rb]
	st.canopy.Union(a, b)
	nr := st.canopy.Find(a)
	if len(ca.members) < len(cb.members) {
		ca, cb = cb, ca
	}
	ca.members = append(ca.members, cb.members...)
	ca.dirty = true
	ca.groups = nil
	delete(st.comps, ra)
	delete(st.comps, rb)
	st.comps[nr] = ca
}

// Groups materialises the level-1 sufficient collapse, rebuilding only
// dirty components and reusing every clean component's groups verbatim.
// sufRoot maps a record id to its sufficient-closure root (the owning
// accumulator's union-find Find); the closure must respect component
// boundaries, which the canopy keyspaces guarantee for predicates
// honouring the Keys completeness contract.
//
// The result is byte-identical to a from-scratch sweep: within a
// component, members are visited in ascending record id — the same
// order a global sweep visits them — so each group's member order,
// float-summed weight, and first-strict-max representative match, and
// the final (weight desc, rep asc) sort is a total order, making concat
// order irrelevant.
func (st *State) Groups(sufRoot func(int) int) []core.Group {
	start := time.Now()
	var dirtyComps, cleanComps, rebuiltGroups, reusedGroups int64
	total := 0
	for _, c := range st.comps {
		if c.dirty {
			st.rebuild(c, sufRoot)
			c.dirty = false
			dirtyComps++
			rebuiltGroups += int64(len(c.groups))
		} else {
			cleanComps++
			reusedGroups += int64(len(c.groups))
		}
		total += len(c.groups)
	}
	out := make([]core.Group, 0, total)
	for _, c := range st.comps {
		out = append(out, c.groups...)
	}
	core.SortGroupsByWeight(out)
	if st.sink != nil {
		st.sink.Count("inc.delta.dirty_components", dirtyComps)
		st.sink.Count("inc.delta.clean_components", cleanComps)
		st.sink.Count("inc.delta.rebuilt_groups", rebuiltGroups)
		st.sink.Count("inc.delta.reused_groups", reusedGroups)
		st.sink.Observe("inc.delta.apply.seconds", time.Since(start).Seconds())
	}
	return out
}

// rebuild recomputes one component's sufficient collapse from its
// members in ascending record-id order (see Groups for why that order
// is the byte-identity anchor).
func (st *State) rebuild(c *component, sufRoot func(int) int) {
	slices.Sort(c.members)
	idx := make(map[int]int, len(c.members))
	groups := make([]core.Group, 0, len(c.members))
	for _, m := range c.members {
		r := st.data.Recs[m]
		root := sufRoot(int(m))
		if gi, ok := idx[root]; ok {
			g := &groups[gi]
			g.Members = append(g.Members, r.ID)
			g.Weight += r.Weight
			if r.Weight > st.data.Recs[g.Rep].Weight {
				g.Rep = r.ID
			}
		} else {
			idx[root] = len(groups)
			groups = append(groups, core.Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight})
		}
	}
	c.groups = groups
}
