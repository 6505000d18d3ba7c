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
//   - the full Min-fill bound of Algorithm 1, run when the cheap bound
//     has stalled for a while; when it reaches the target, a binary
//     search over prefix lengths narrows down the smallest qualifying
//     prefix.
//
// Both are true lower bounds on the clique partition number, so whichever
// fires first yields a correct (merely possibly non-minimal) m.

// Prefix is a prefix graph grown one vertex at a time, with the greedy
// independent set over it and the stopping rule of the §4.2 scan: it
// reports the target reached at the first prefix either bound certifies.
type Prefix struct {
	g         *Graph
	inIS      []bool
	target    int
	isSize    int
	sinceFull int
	interval  int
	reachedAt int // smallest prefix known to reach target; -1 if none
}

// NewPrefix returns an empty prefix graph for the given target K (values
// < 1 are clamped to 1).
func NewPrefix(target int) *Prefix {
	if target < 1 {
		target = 1
	}
	return &Prefix{g: New(0), target: target, interval: 8 + target/4, reachedAt: -1}
}

// ReachedAt returns the smallest prefix length known to reach the target,
// or -1 when the target has not been reached.
func (p *Prefix) ReachedAt() int { return p.reachedAt }

// Independent returns the size of the greedy independent set so far.
func (p *Prefix) Independent() int { return p.isSize }

// Add inserts the next vertex together with its edges to earlier vertices
// (indices < current length; out-of-range entries are ignored) and
// reports whether the target is now reached. The full Algorithm-1 bound
// is consulted only when the cheap bound has stalled, and never again
// once the target is reached.
func (p *Prefix) Add(neighbors []int) bool {
	v := p.g.AddVertex()
	p.inIS = append(p.inIS, false)
	independent := true
	for _, u := range neighbors {
		if u >= 0 && u < v {
			p.g.AddEdge(u, v)
			if p.inIS[u] {
				independent = false
			}
		}
	}
	if p.reachedAt >= 0 {
		return true
	}
	if independent {
		p.inIS[v] = true
		p.isSize++
		p.sinceFull = 0 // still making progress cheaply
		if p.isSize >= p.target {
			p.reachedAt = v + 1
		}
		return p.reachedAt >= 0
	}
	// The cheap bound has stalled for a while: bring in Algorithm 1,
	// whose Min-fill ordering finds independent sets the insertion-order
	// greedy misses.
	p.sinceFull++
	if p.sinceFull >= p.interval {
		p.sinceFull = 0
		p.fullCheck()
	}
	return p.reachedAt >= 0
}

// cpnAt returns the Algorithm-1 (Min-fill) CPN lower bound of the first
// prefix vertices.
func (p *Prefix) cpnAt(prefix int) int {
	cpn, _ := CPNLowerBound(p.g.InducedSubgraph(prefix))
	return cpn
}

func (p *Prefix) fullCheck() {
	n := p.g.Len()
	if n > 2500 {
		// Min-fill on very large (and, when the cheap bound has stalled
		// this long, typically dense) prefixes costs more than the
		// pruning its tighter m could save; stay on the cheap bound.
		return
	}
	if p.cpnAt(n) < p.target {
		return
	}
	// Binary search the smallest prefix whose bound reaches the target.
	// The true CPN is monotone in the prefix (adding vertices cannot
	// decrease it); the estimate may dip occasionally, in which case we
	// simply settle for a slightly larger — still correct — m.
	lo, hi := p.target, n // prefixes < target can never reach target
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cpnAt(mid) >= p.target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	p.reachedAt = lo
}
