package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/index"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// The prune kernel against its reference forms: the stage-0.5 cascade
// that collects every candidate before it sums, and the exact pass that
// gates through groups[j], p.live and p.u per candidate and orders by
// sort.Slice. The kernel walks only until a sum reaches M and gates
// from one per-pass array; every bound, kill, eval and hit must come
// out as the references compute them.

// rescanStage0Ref is RescanStage0 with the stage-0.5 walk in its full
// form: every candidate of a group is collected first (the index's
// walk: keys in order, each bucket ascending, each candidate at its
// first visit), then the gated weights are summed until the total
// reaches M.
func rescanStage0Ref(p *Pruner) {
	groups, m := p.groups, p.m
	for i := range p.live {
		p.live[i] = true
	}
	p.stage0Rounds = 0
	for round := 0; round < prunePass0Rounds; round++ {
		p.stage0Rounds++
		clear(p.totals)
		for i := range groups {
			if !p.live[i] {
				continue
			}
			for _, k := range p.keyIDs[i] {
				p.totals[k] += groups[i].Weight
			}
		}
		changed := false
		for i := range groups {
			if !p.live[i] {
				continue
			}
			w := groups[i].Weight
			ub := w
			for _, k := range p.keyIDs[i] {
				ub += p.totals[k] - w
			}
			p.u[i] = ub
			if ub < m {
				p.live[i] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	count := make([]int32, len(groups))
	var cand []int32
	for round := 0; round < 4; round++ {
		p.stage0Rounds++
		changed := false
		for i := range groups {
			if !p.live[i] {
				continue
			}
			w := groups[i].Weight
			if w >= m {
				continue
			}
			cand = p.ix.CandidatesCounted(i, p.keyIDs[i], count, cand[:0])
			index.ClearCounts(count, cand)
			total := w
			for _, j32 := range cand {
				j := int(j32)
				if !p.live[j] || (groups[j].Weight < m && p.u[j] < m) {
					continue
				}
				total += groups[j].Weight
				if total >= m {
					break
				}
			}
			if total < p.u[i] {
				p.u[i] = total
			}
			if total < m {
				p.live[i] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	p.stage0Pruned = 0
	for _, ok := range p.live {
		if !ok {
			p.stage0Pruned++
		}
	}
}

// passOutcome is what one exact pass decides per group.
type passOutcome struct {
	next        []float64
	die         []bool
	evals, hits []int64
}

// passRef computes one exact pass serially from p's current bounds and
// liveness without changing p: candidates gated through groups[j],
// p.live and p.u, the gated list ordered heaviest first by sort.Slice
// under the same condition the kernel sorts under.
func passRef(p *Pruner) passOutcome {
	groups, m := p.groups, p.m
	ng := len(groups)
	out := passOutcome{
		next:  append([]float64(nil), p.u...),
		die:   make([]bool, ng),
		evals: make([]int64, ng),
		hits:  make([]int64, ng),
	}
	count := make([]int32, ng)
	var cand, gated []int32
	for i := range groups {
		if !p.live[i] {
			continue
		}
		w := groups[i].Weight
		if w >= m {
			continue
		}
		cand = p.ix.CandidatesCounted(i, p.keyIDs[i], count, cand[:0])
		gated = gated[:0]
		remaining := 0.0
		for _, j32 := range cand {
			j := int(j32)
			if !p.live[j] || (groups[j].Weight < m && p.u[j] < m) {
				continue
			}
			gated = append(gated, j32)
			remaining += groups[j].Weight
		}
		ub := w
		if w+remaining >= m {
			if w+remaining < 4*m || len(gated) < 64 {
				sort.Slice(gated, func(a, b int) bool {
					return groups[gated[a]].Weight > groups[gated[b]].Weight
				})
			}
			for _, j32 := range gated {
				j := int(j32)
				out.evals[i]++
				if p.eval(i, j, int(count[j])) {
					out.hits[i]++
					ub += groups[j].Weight
					if ub >= m {
						ub = m
						break
					}
				} else {
					remaining -= groups[j].Weight
					if ub+remaining < m {
						break
					}
				}
			}
		}
		index.ClearCounts(count, cand)
		out.next[i] = ub
		if ub < m {
			out.die[i] = true
		}
	}
	return out
}

// multiKeyN is a necessary predicate with three blocking keys per
// genDataset name ("c017.v1"): the entity number's first two digits, its
// last two, and the first letter with the last digit. Candidate walks
// cross several overlapping buckets, so a walk can stop in the middle
// of its keys. Eval also asks the rendering suffixes to differ by at
// most one, so some candidates fail and the order a pass evaluates them
// in decides its eval count.
func multiKeyN() predicate.P {
	return predicate.P{
		Name: "N3",
		Eval: func(a, b *records.Record) bool {
			na, nb := a.Field("name"), b.Field("name")
			return len(na) == 7 && len(nb) == 7 &&
				(na[1:3] == nb[1:3] || na[2:4] == nb[2:4] || (na[0] == nb[0] && na[3] == nb[3])) &&
				max(na[6], nb[6])-min(na[6], nb[6]) <= 1
		},
		Keys: func(r *records.Record) []string {
			n := r.Field("name")
			if len(n) != 7 {
				return nil
			}
			return []string{"a:" + n[1:3], "b:" + n[2:4], "c:" + n[:1] + n[3:4]}
		},
	}
}

// pruneFixture is one prune input at the bound M the §4.2 scan
// certifies for its K.
type pruneFixture struct {
	name   string
	d      *records.Dataset
	groups []Group
	n      predicate.P
	m      float64
}

// pruneFixtures builds the reference comparisons' inputs: 20 genDataset
// seeds under toyN and multiKeyN, with the generator's near-unique
// weights, with every weight 1 (heavy ties, so the pass's sort order
// decides evals), and with every third record weighing 0; plus level 1
// of a 1,500-record citations dataset, whose gram keys give each group
// dozens of buckets. Each at K in {1, 3, 10}; a K the scan certifies no
// bound for is left out.
func pruneFixtures(tb testing.TB) []pruneFixture {
	tb.Helper()
	type input struct {
		name   string
		d      *records.Dataset
		groups []Group
		ns     []predicate.P
	}
	level := func(name string, d *records.Dataset, s predicate.P, ns ...predicate.P) input {
		groups, _ := Collapse(d, singletonGroups(d), s)
		sortGroupsByWeight(groups)
		return input{name, d, groups, ns}
	}
	reweight := func(d *records.Dataset, w func(id int) float64) *records.Dataset {
		for _, r := range d.Recs {
			r.Weight = w(r.ID)
		}
		return d
	}
	var inputs []input
	for seed := int64(1); seed <= 20; seed++ {
		entities := 40 + 10*int(seed)
		inputs = append(inputs,
			level(fmt.Sprintf("seed %d", seed), genDataset(seed, entities, 8), toyS(), toyN(), multiKeyN()),
			level(fmt.Sprintf("seed %d unit weights", seed), reweight(genDataset(seed, entities, 8), func(int) float64 { return 1 }), toyS(), toyN(), multiKeyN()))
	}
	for seed := int64(21); seed <= 23; seed++ {
		d := reweight(genDataset(seed, 120, 8), func(id int) float64 {
			if id%3 == 0 {
				return 0
			}
			return 1
		})
		inputs = append(inputs, level(fmt.Sprintf("seed %d zero weights", seed), d, toyS(), toyN(), multiKeyN()))
	}
	cit := datagen.Citations(datagen.DefaultCitationConfig(1500))
	cl := domains.Citations(domains.BuildDistinctCorpus(cit, datagen.FieldAuthor), domains.CitationOptions{}).Levels[0]
	inputs = append(inputs, level("citations level 1", cit, cl.Sufficient, cl.Necessary))

	var out []pruneFixture
	for _, in := range inputs {
		for _, n := range in.ns {
			for _, k := range []int{1, 3, 10} {
				if n.Name == "N" && k > 6 {
					continue // toyN's six letter buckets certify at most six groups
				}
				_, m, _ := EstimateLowerBound(in.d, in.groups, n, k)
				if m <= 0 {
					continue
				}
				out = append(out, pruneFixture{fmt.Sprintf("%s %s K=%d", in.name, n.Name, k), in.d, in.groups, n, m})
			}
		}
	}
	if len(out) < 60 {
		tb.Fatalf("setup: only %d fixtures certified a bound", len(out))
	}
	return out
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStage0MatchesFullWalk: RescanStage0, which stops a group's walk
// once its sum reaches M, leaves the bounds (bit for bit), liveness,
// kill count and round count of the walk that collects every candidate
// first.
func TestStage0MatchesFullWalk(t *testing.T) {
	killed := 0
	for _, f := range pruneFixtures(t) {
		got := NewPruner(f.d, f.groups, f.n, f.m, 1, nil)
		want := NewPruner(f.d, f.groups, f.n, f.m, 1, nil)
		rescanStage0Ref(want)
		if !sameBits(got.u, want.u) || fmt.Sprint(got.live) != fmt.Sprint(want.live) ||
			got.Stage0Pruned() != want.Stage0Pruned() || got.stage0Rounds != want.stage0Rounds {
			t.Errorf("%s: killed %d in %d rounds, bounds equal %v; reference killed %d in %d rounds",
				f.name, got.Stage0Pruned(), got.stage0Rounds, sameBits(got.u, want.u), want.Stage0Pruned(), want.stage0Rounds)
		}
		killed += want.Stage0Pruned()
	}
	if killed == 0 {
		t.Error("stage 0 killed nothing on any fixture — the comparison exercised nothing")
	}
}

// TestPassMatchesReference: every exact pass, at one worker and at two,
// publishes the next bounds (bit for bit), kills, and per-group eval and
// hit counts that the sort.Slice form computes from the same state.
func TestPassMatchesReference(t *testing.T) {
	var evals int64
	for _, f := range pruneFixtures(t) {
		for _, workers := range []int{1, 2} {
			p := NewPruner(f.d, f.groups, f.n, f.m, workers, nil)
			for pass := 1; pass <= 3; pass++ {
				want := passRef(p)
				liveBefore := append([]bool(nil), p.live...)
				pruned, passEvals, passHits := p.PassCtx(context.Background())
				var wantEvals, wantHits int64
				wantPruned, firstDiff := 0, -1
				for i := range want.die {
					wantEvals += want.evals[i]
					wantHits += want.hits[i]
					if want.die[i] {
						wantPruned++
					}
					if firstDiff < 0 && (p.live[i] != (liveBefore[i] && !want.die[i]) ||
						p.evalCount[i] != want.evals[i] || p.hitCount[i] != want.hits[i]) {
						firstDiff = i
					}
				}
				if firstDiff >= 0 {
					i := firstDiff
					t.Errorf("%s workers=%d pass %d: group %d live %v evals %d hits %d, reference die %v evals %d hits %d",
						f.name, workers, pass, i, p.live[i], p.evalCount[i], p.hitCount[i], want.die[i], want.evals[i], want.hits[i])
				}
				if !sameBits(p.u, want.next) || pruned != wantPruned || passEvals != wantEvals || passHits != wantHits {
					t.Errorf("%s workers=%d pass %d: pruned %d evals %d hits %d bounds equal %v; reference %d, %d, %d",
						f.name, workers, pass, pruned, passEvals, passHits, sameBits(p.u, want.next), wantPruned, wantEvals, wantHits)
				}
				evals += passEvals
				if pruned == 0 {
					break
				}
			}
		}
	}
	if evals == 0 {
		t.Error("no pass evaluated a pair — the comparison exercised nothing")
	}
}

// TestHeavierFirstMatchesSortSlice: slices.SortFunc under heavierFirst
// leaves gated candidates in the permutation sort.Slice leaves them in
// under "a.w > b.w", ties included, which is what keeps every pass's
// evals where the sort.Slice kernel put them. Both are the standard
// library's generated pdqsort, so the guarantee is the toolchain's and
// holds per toolchain; this test checks it on the one it runs under.
// Lengths 0–3,000 cross the insertion-sort (12 elements) and ninther
// (50) thresholds; 1–20 distinct weights make ties the rule; inputs come
// in random, presorted (heaviest first) and reversed order.
func TestHeavierFirstMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fixed := []int{0, 1, 2, 11, 12, 13, 49, 50, 51, 63, 64, 65, 128, 1000, 3000}
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(3001)
		if trial < 3*len(fixed) {
			n = fixed[trial/3]
		} else if trial%2 == 0 {
			n = r.Intn(130)
		}
		distinct := 1 + r.Intn(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(r.Intn(distinct)) * 1.25
		}
		switch trial % 3 {
		case 1:
			sort.Sort(sort.Reverse(sort.Float64Slice(w)))
		case 2:
			sort.Float64s(w)
		}
		want := make([]int32, n)
		got := make([]gatedCand, n)
		for i := range w {
			want[i] = int32(i)
			got[i] = gatedCand{w[i], int32(i)}
		}
		sort.Slice(want, func(a, b int) bool { return w[want[a]] > w[want[b]] })
		slices.SortFunc(got, heavierFirst)
		for i := range want {
			if got[i].j != want[i] {
				t.Fatalf("trial %d (n=%d, %d weights, order %d): position %d holds %d, sort.Slice put %d there",
					trial, n, distinct, trial%3, i, got[i].j, want[i])
			}
		}
	}
}
