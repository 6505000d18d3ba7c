package graph

// This file is the "incremental version" of Algorithm 1 the paper
// alludes to in §4.2.1: grow a graph one vertex at a time (each new
// vertex arrives with its edges to earlier vertices) and find the
// smallest prefix length m such that the CPN lower bound of the induced
// prefix graph reaches a target K. PrunedDedup feeds in collapsed groups
// in decreasing size order and stops as soon as K distinct entities are
// guaranteed.
//
// Two bounds are combined:
//
//   - a cheap greedy independent set maintained incrementally in O(deg)
//     per insertion (a new vertex joins the set iff none of its
//     neighbours is in it), and
//   - the full Min-fill bound of Algorithm 1, run every few insertions;
//     when it reaches the target, a binary search over prefix lengths
//     narrows down the smallest qualifying prefix.
//
// Both are true lower bounds on the clique partition number, so whichever
// fires first yields a correct (merely possibly non-minimal) m.
//
// The machinery comes in two halves: a LocalPrefix holds the graph plus
// the greedy independent set, and a PrefixController makes the
// stop/stall/full-check decisions from the per-vertex verdicts alone
// (core.ReplayBound is the one place that puts them together). The split
// is what makes cross-shard bound estimation exact: both bounds
// decompose over vertex-disjoint components (a vertex joins the greedy
// set based only on its own neighbours; Min-fill elimination never
// crosses a connected component), so one PrefixController fed verdicts
// from per-shard LocalPrefix instances follows the same trajectory as
// one fed from a single LocalPrefix over the whole graph.

// LocalPrefix is the graph half of the incremental prefix-CPN machinery:
// a prefix graph grown one vertex at a time plus the greedy independent
// set over it. It makes no stopping decisions — that is the
// PrefixController's job — so a shard can keep one LocalPrefix per local
// group list while the coordinator owns the single global controller.
//
// Both quantities a LocalPrefix can report decompose additively over
// vertex-disjoint unions of graphs: a vertex's greedy-set membership
// depends only on its own (same-component) neighbours, and the Min-fill
// bound behind CPNAt eliminates vertices without ever creating a fill
// edge across components. internal/shard relies on this to equate
// "sum of per-shard values" with "value of the global prefix graph".
type LocalPrefix struct {
	g    *Graph
	inIS []bool
}

// NewLocalPrefix returns an empty prefix graph.
func NewLocalPrefix() *LocalPrefix { return &LocalPrefix{g: New(0)} }

// Add inserts the next vertex together with its edges to earlier vertices
// (indices < current Len; out-of-range entries are ignored) and reports
// whether the vertex joined the greedy independent set.
func (lp *LocalPrefix) Add(neighbors []int) bool {
	v := lp.g.AddVertex()
	lp.inIS = append(lp.inIS, false)
	independent := true
	for _, u := range neighbors {
		if u >= 0 && u < v {
			lp.g.AddEdge(u, v)
			if lp.inIS[u] {
				independent = false
			}
		}
	}
	if independent {
		lp.inIS[v] = true
	}
	return independent
}

// CPNAt returns the Algorithm-1 (Min-fill) CPN lower bound of the first
// prefix vertices. Prefixes beyond Len are clamped; prefix <= 0 is 0.
func (lp *LocalPrefix) CPNAt(prefix int) int {
	if prefix <= 0 || lp.g.Len() == 0 {
		return 0
	}
	if prefix > lp.g.Len() {
		prefix = lp.g.Len()
	}
	cpn, _ := CPNLowerBound(lp.g.InducedSubgraph(prefix))
	return cpn
}

// PrefixController is the decision half of the incremental prefix-CPN
// machinery: it consumes one greedy-independence verdict per vertex, in
// prefix order, and decides when the target is reached — falling back to
// the full Algorithm-1 bound (via the supplied fullCPN callback) when
// the cheap greedy bound has stalled for a while. It never touches the
// graph itself, which is what lets the sharded coordinator replay
// verdicts gathered from per-shard LocalPrefix instances through the
// exact control flow a single-machine scan follows.
type PrefixController struct {
	target    int
	n         int // verdicts consumed so far = current prefix length
	isSize    int
	sinceFull int
	interval  int
	reachedAt int // smallest prefix known to reach target; -1 if none
}

// NewPrefixController returns a controller for the given target K
// (values < 1 are clamped to 1).
func NewPrefixController(target int) *PrefixController {
	if target < 1 {
		target = 1
	}
	return &PrefixController{target: target, interval: 8 + target/4, reachedAt: -1}
}

// ReachedAt returns the smallest prefix length known to reach the target,
// or -1 when the target has not been reached.
func (pc *PrefixController) ReachedAt() int { return pc.reachedAt }

// Feed consumes the next vertex's independence verdict and reports
// whether the target is now reached. fullCPN(prefix) must return the
// Algorithm-1 CPN lower bound of the first prefix vertices; it is
// consulted only when the cheap bound has stalled (and never again once
// the target is reached).
func (pc *PrefixController) Feed(independent bool, fullCPN func(prefix int) int) bool {
	pc.n++
	if pc.reachedAt >= 0 {
		return true
	}
	if independent {
		pc.isSize++
		pc.sinceFull = 0 // still making progress cheaply
		if pc.isSize >= pc.target {
			pc.reachedAt = pc.n
		}
		return pc.reachedAt >= 0
	}
	// The cheap bound has stalled for a while: bring in Algorithm 1,
	// whose Min-fill ordering finds independent sets the insertion-order
	// greedy misses.
	pc.sinceFull++
	if pc.sinceFull >= pc.interval {
		pc.sinceFull = 0
		pc.fullCheck(fullCPN)
	}
	return pc.reachedAt >= 0
}

// Finish runs a final strong check; call it when no more vertices remain.
// It reports whether the target was reached.
func (pc *PrefixController) Finish(fullCPN func(prefix int) int) bool {
	if pc.reachedAt < 0 {
		pc.fullCheck(fullCPN)
	}
	return pc.reachedAt >= 0
}

func (pc *PrefixController) fullCheck(fullCPN func(prefix int) int) {
	n := pc.n
	if n == 0 || n > 2500 {
		// Min-fill on very large (and, when the cheap bound has stalled
		// this long, typically dense) prefixes costs more than the
		// pruning its tighter m could save; stay on the cheap bound.
		return
	}
	if fullCPN(n) < pc.target {
		return
	}
	// Binary search the smallest prefix whose bound reaches the target.
	// The true CPN is monotone in the prefix (adding vertices cannot
	// decrease it); the estimate may dip occasionally, in which case we
	// simply settle for a slightly larger — still correct — m.
	lo, hi := pc.target, n // prefixes < target can never reach target
	for lo < hi {
		mid := (lo + hi) / 2
		if fullCPN(mid) >= pc.target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pc.reachedAt = lo
}
