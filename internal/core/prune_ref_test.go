package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/index"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// The prune kernel against its reference forms: the stage-0.5 cascade
// that collects every candidate before it sums, and an exact pass that
// gates through groups[j], p.live and p.u per candidate and evaluates
// every gated candidate with Eval. The kernel walks only until a sum
// reaches M, gates from one per-pass array and evaluates a pair only
// once it shares its need of keys; stage 0 must come out bit for bit as
// its reference, and every pass must keep and kill the groups its
// reference does.

// candidates is the full candidate walk of group i: the groups sharing
// one of its keys, keys in order and each bucket ascending, each at its
// first visit, i itself left out. stamp is scratch over the groups.
func candidates(p *Pruner, i int, stamp *index.Stamp) []int32 {
	stamp.Reset()
	stamp.Visit(i)
	var cand []int32
	for _, k := range p.keyIDs[i] {
		for _, j := range p.ix.Bucket(k) {
			if !stamp.Visit(int(j)) {
				cand = append(cand, j)
			}
		}
	}
	return cand
}

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
	stamp := index.NewStamp(len(groups))
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
			total := w
			for _, j32 := range candidates(p, i, stamp) {
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

// passRef computes serially, from p's current bounds and liveness and
// without changing p, which live groups below M one exact pass would
// keep: a group survives iff its weight plus the weight of every
// candidate that is alive, not below M on both weight and bound, and
// satisfies n (Eval on the representatives) reaches M. No early exit,
// no count filter.
func passRef(p *Pruner, d *records.Dataset, n predicate.P) (survive []bool) {
	groups, m := p.groups, p.m
	survive = append([]bool(nil), p.live...)
	stamp := index.NewStamp(len(groups))
	for i := range groups {
		if !p.live[i] || groups[i].Weight >= m {
			continue
		}
		ub := groups[i].Weight
		for _, j32 := range candidates(p, i, stamp) {
			j := int(j32)
			if p.live[j] && !(groups[j].Weight < m && p.u[j] < m) &&
				n.Eval(d.Recs[groups[i].Rep], d.Recs[groups[j].Rep]) {
				ub += groups[j].Weight
			}
		}
		survive[i] = ub >= m
	}
	return survive
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
// keeps and kills exactly the groups the brute-force reference does,
// and stores a bound at or above M exactly for the groups it keeps. Its
// evaluation count and the bound of a killed group depend on the walk
// order and the count filter, so they are not compared.
func TestPassMatchesReference(t *testing.T) {
	var evals int64
	for _, f := range pruneFixtures(t) {
		for _, workers := range []int{1, 2} {
			p := NewPruner(f.d, f.groups, f.n, f.m, workers, nil)
			for pass := 1; pass <= 3; pass++ {
				want := passRef(p, f.d, f.n)
				wantPruned := 0
				for i, ok := range want {
					if p.live[i] && !ok {
						wantPruned++
					}
				}
				pruned, passEvals, _ := p.PassCtx(context.Background())
				for i, ok := range p.live {
					if ok != want[i] || ok != (p.u[i] >= f.m) {
						t.Fatalf("%s workers=%d pass %d: group %d live %v bound %v, reference keeps it: %v (M %v)",
							f.name, workers, pass, i, ok, p.u[i], want[i], f.m)
					}
				}
				if pruned != wantPruned {
					t.Errorf("%s workers=%d pass %d: reported %d kills, reference %d", f.name, workers, pass, pruned, wantPruned)
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
