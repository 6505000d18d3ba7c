package graph

import (
	"math/rand"
	"testing"
)

func TestPrefixCPNBasic(t *testing.T) {
	// Edgeless vertices: each addition is a new independent entity, so the
	// target K is reached at exactly prefix K.
	p := NewPrefix(3)
	for i := 0; i < 5; i++ {
		reached := p.Add(nil)
		if i < 2 && reached {
			t.Fatalf("reached too early at vertex %d", i)
		}
		if i >= 2 && !reached {
			t.Fatalf("not reached at vertex %d", i)
		}
	}
	if p.ReachedAt() != 3 {
		t.Errorf("ReachedAt = %d, want 3", p.ReachedAt())
	}
}

func TestPrefixCPNCliqueNeverReaches(t *testing.T) {
	// A growing clique always has CPN 1; target 2 is never reached.
	p := NewPrefix(2)
	for i := 0; i < 20; i++ {
		nbrs := make([]int, i)
		for j := range nbrs {
			nbrs[j] = j
		}
		if p.Add(nbrs) {
			t.Fatalf("clique should never reach CPN 2 (vertex %d)", i)
		}
	}
	if p.ReachedAt() != -1 {
		t.Errorf("ReachedAt = %d, want -1", p.ReachedAt())
	}
}

func TestPrefixCPNPaperExample(t *testing.T) {
	// Figure 1 with K=2: the naive check needs all five vertices, but the
	// CPN bound certifies two distinct groups within the first three
	// (N(c1,c3) is false). Adjacency (to earlier vertices):
	// c2: {c1}; c3: {c2}; c4: {c2,c3}; c5: {c1}.
	p := NewPrefix(2)
	p.Add(nil)                 // c1
	p.Add([]int{0})            // c2
	reached := p.Add([]int{1}) // c3: not adjacent to c1
	if !reached {
		t.Fatal("target should be reached at c3")
	}
	if p.ReachedAt() != 3 {
		t.Errorf("ReachedAt = %d, want 3", p.ReachedAt())
	}
}

func TestPrefixCPNTargetOne(t *testing.T) {
	p := NewPrefix(1)
	if !p.Add(nil) {
		t.Fatal("K=1 should be reached at the first vertex")
	}
	if p.ReachedAt() != 1 {
		t.Errorf("ReachedAt = %d, want 1", p.ReachedAt())
	}
}

func TestPrefixCPNClampTarget(t *testing.T) {
	p := NewPrefix(0)
	if !p.Add(nil) {
		t.Fatal("target < 1 should clamp to 1")
	}
}

// Validity: whenever the prefix says the target is reached at prefix m, the
// exact CPN of that prefix must be >= target.
func TestPrefixCPNValidity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(8)
		target := 1 + r.Intn(4)
		// Random edges with probability ~1/2 to earlier vertices.
		adj := make([][]int, n)
		full := New(n)
		for v := 1; v < n; v++ {
			for u := 0; u < v; u++ {
				if r.Intn(2) == 0 {
					adj[v] = append(adj[v], u)
					full.AddEdge(u, v)
				}
			}
		}
		p := NewPrefix(target)
		for v := 0; v < n; v++ {
			p.Add(adj[v])
		}
		// Not reached needs no check: the estimate is only a lower bound.
		if m := p.ReachedAt(); m >= 0 {
			prefix := full.InducedSubgraph(m)
			if exact := exactCPN(prefix); exact < target {
				t.Fatalf("trial %d: claimed reach at m=%d but exact CPN %d < target %d",
					trial, m, exact, target)
			}
		}
	}
}

func TestPrefixCPNFullCheckPath(t *testing.T) {
	// Force the periodic full check: a long path 0-1-2-...: greedy IS in
	// insertion order takes every other vertex, so CPN target n/2 requires
	// prefix ~n. Check Add eventually reports reached and the result is
	// valid.
	const n = 40
	target := 10
	p := NewPrefix(target)
	reachedAtAdd := -1
	for v := 0; v < n; v++ {
		var nbrs []int
		if v > 0 {
			nbrs = []int{v - 1}
		}
		if p.Add(nbrs) && reachedAtAdd < 0 {
			reachedAtAdd = v + 1
		}
	}
	if reachedAtAdd < 0 {
		t.Fatal("path should reach CPN 10 within 40 vertices")
	}
	m := p.ReachedAt()
	// Exact CPN of a path prefix of m vertices is ceil(m/2).
	if (m+1)/2 < target {
		t.Errorf("reached at m=%d but exact path CPN %d < %d", m, (m+1)/2, target)
	}
}
