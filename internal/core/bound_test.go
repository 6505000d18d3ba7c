package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// nearN is a necessary predicate whose N-graph is not a union of
// cliques: same first letter (the blocking key) and entity numbers at
// most 40 apart. Weight order visits a letter's entities in no particular
// numeric order, so the greedy independent set stalls where Min-fill
// still finds room and the prefix's full checks do real work.
func nearN() predicate.P {
	num := func(r *records.Record) int {
		n, _ := strconv.Atoi(r.Field("name")[1:4])
		return n
	}
	p := toyN()
	p.Eval = func(a, b *records.Record) bool {
		if a.Field("name")[0] != b.Field("name")[0] {
			return false
		}
		d := num(a) - num(b)
		return -40 <= d && d <= 40
	}
	return p
}

// boundInput is the multi-block input of the bound-scan tests: 600
// entities over 14 letters, one to three equal renderings each, collapsed
// by toyS and weight-sorted.
func boundInput(tb testing.TB, seed int64) (*records.Dataset, []Group) {
	tb.Helper()
	rng := rand.New(rand.NewSource(40 + seed))
	d := records.New("replay", "name")
	for e := 0; e < 600; e++ {
		name := fmt.Sprintf("%c%03d", 'a'+rng.Intn(14), e)
		for c := 1 + rng.Intn(3); c > 0; c-- {
			d.Append(1+rng.Float64(), name, name)
		}
	}
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	if limit := BoundScanLimit(groups, 1); limit <= 2*boundBlock {
		tb.Fatalf("scan limit %d does not span several blocks", limit)
	}
	return d, groups
}

// traceBound runs one traced scan and renders what it leaves behind on a
// line: its results, the core.bound span's attributes, and its
// bound.block events in order (scanned/independent/m each).
func traceBound(t *testing.T, d *records.Dataset, groups []Group, n predicate.P, k int) (line string, m, lastScanned int) {
	t.Helper()
	rec := obs.NewRecorder(1)
	ctx, root := rec.Start(context.Background(), nil, "test")
	m, lower, evals, hits := EstimateLowerBoundCtx(ctx, d, groups, n, k, 1)
	root.End()
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d M=%s evals=%d hits=%d |", m, num(lower), evals, hits)
	spans := 0
	for _, sp := range rec.Spans(root.TraceID()) {
		if sp.Name != "core.bound" {
			continue
		}
		spans++
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, num(a.Num))
		}
		b.WriteString(" |")
		for _, ev := range sp.Events {
			if ev.Name != "bound.block" || len(ev.Attrs) != 3 ||
				ev.Attrs[0].Key != "scanned" || ev.Attrs[1].Key != "independent" || ev.Attrs[2].Key != "m" {
				t.Fatalf("unexpected event %+v", ev)
			}
			fmt.Fprintf(&b, " %s/%s/%s", num(ev.Attrs[0].Num), num(ev.Attrs[1].Num), num(ev.Attrs[2].Num))
			lastScanned = int(ev.Attrs[0].Num)
		}
	}
	if spans != 1 {
		t.Fatalf("%d core.bound spans, want 1", spans)
	}
	return b.String(), m, lastScanned
}

// boundGolden is what the §4.2 scan reported on boundInput, recorded
// from the part-generic replay loop the single-prefix scan replaced and
// kept since: (m, M, evals, hits), the span's attributes (M's key is
// lower, its registry name's last segment, since the scan reports
// through one obs.Phase), and the bound.block trail.
var boundGolden = []string{
	"toyN seed=0 k=1: m=1 M=5.795412272601073 evals=0 hits=0 | evals=0 hits=0 m_rank=1 lower=5.795412272601073 | 1/1/5.795412272601073",
	"toyN seed=0 k=5: m=5 M=5.495961845427317 evals=0 hits=0 | evals=0 hits=0 m_rank=5 lower=5.495961845427317 | 5/5/5.495961845427317",
	"toyN seed=0 k=20: m=0 M=0 evals=12678 hits=12678 | evals=12678 hits=12678 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=0 k=100: m=0 M=0 evals=12678 hits=12678 | evals=12678 hits=12678 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=0 k=142: m=0 M=0 evals=12678 hits=12678 | evals=12678 hits=12678 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=0 k=150: m=0 M=0 evals=12678 hits=12678 | evals=12678 hits=12678 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=1 k=1: m=1 M=5.6364714775591125 evals=0 hits=0 | evals=0 hits=0 m_rank=1 lower=5.6364714775591125 | 1/1/5.6364714775591125",
	"toyN seed=1 k=5: m=5 M=5.384318016982538 evals=0 hits=0 | evals=0 hits=0 m_rank=5 lower=5.384318016982538 | 5/5/5.384318016982538",
	"toyN seed=1 k=20: m=0 M=0 evals=12757 hits=12757 | evals=12757 hits=12757 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=1 k=100: m=0 M=0 evals=12757 hits=12757 | evals=12757 hits=12757 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=1 k=142: m=0 M=0 evals=12757 hits=12757 | evals=12757 hits=12757 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"toyN seed=1 k=150: m=0 M=0 evals=12757 hits=12757 | evals=12757 hits=12757 m_rank=0 lower=0 | 256/14/0 512/14/0 599/14/0",
	"nearN seed=0 k=1: m=1 M=5.795412272601073 evals=0 hits=0 | evals=0 hits=0 m_rank=1 lower=5.795412272601073 | 1/1/5.795412272601073",
	"nearN seed=0 k=5: m=5 M=5.495961845427317 evals=0 hits=0 | evals=0 hits=0 m_rank=5 lower=5.495961845427317 | 5/5/5.495961845427317",
	"nearN seed=0 k=20: m=25 M=5.131952884607271 evals=23 hits=5 | evals=23 hits=5 m_rank=25 lower=5.131952884607271 | 25/20/5.131952884607271",
	"nearN seed=0 k=100: m=209 M=3.5917225213511177 evals=1500 hits=183 | evals=1500 hits=183 m_rank=209 lower=3.5917225213511177 | 209/100/3.5917225213511177",
	"nearN seed=0 k=142: m=489 M=1.5817867117950137 evals=11561 hits=1465 | evals=11561 hits=1465 m_rank=489 lower=1.5817867117950137 | 256/107/0 512/135/0 573/136/1.5817867117950137",
	"nearN seed=0 k=150: m=0 M=0 evals=12678 hits=1599 | evals=12678 hits=1599 m_rank=0 lower=0 | 256/107/0 512/135/0 599/138/0",
	"nearN seed=1 k=1: m=1 M=5.6364714775591125 evals=0 hits=0 | evals=0 hits=0 m_rank=1 lower=5.6364714775591125 | 1/1/5.6364714775591125",
	"nearN seed=1 k=5: m=5 M=5.384318016982538 evals=0 hits=0 | evals=0 hits=0 m_rank=5 lower=5.384318016982538 | 5/5/5.384318016982538",
	"nearN seed=1 k=20: m=20 M=5.13240575067336 evals=12 hits=0 | evals=12 hits=0 m_rank=20 lower=5.13240575067336 | 20/20/5.13240575067336",
	"nearN seed=1 k=100: m=218 M=3.5861148101222238 evals=1722 hits=214 | evals=1722 hits=214 m_rank=218 lower=3.5861148101222238 | 218/100/3.5861148101222238",
	"nearN seed=1 k=142: m=589 M=1.0579194345781633 evals=12333 hits=1599 | evals=12333 hits=1599 m_rank=589 lower=1.0579194345781633 | 256/107/0 512/138/0 589/142/1.0579194345781633",
	"nearN seed=1 k=150: m=0 M=0 evals=12757 hits=1646 | evals=12757 hits=1646 m_rank=0 lower=0 | 256/107/0 512/138/0 599/144/0",
}

// TestBoundScanGolden pins the §4.2 scan on boundInput for two necessary
// predicates (toyN's graph is a union of cliques, nearN's is not), two
// seeds and K from one to past the 142 entities the toyN graph can
// certify: results, span attributes and the bound.block sequence, line
// for line. At least one case must certify m through a Min-fill full
// check — an m behind the last block's scanned count — so that path stays
// covered.
func TestBoundScanGolden(t *testing.T) {
	viaFullCheck := false
	var got []string
	for _, n := range []struct {
		name string
		p    predicate.P
	}{{"toyN", toyN()}, {"nearN", nearN()}} {
		for seed := int64(0); seed < 2; seed++ {
			d, groups := boundInput(t, seed)
			for _, k := range []int{1, 5, 20, 100, 142, 150} {
				line, m, scanned := traceBound(t, d, groups, n.p, k)
				if m > 0 && m < scanned {
					viaFullCheck = true
				}
				got = append(got, fmt.Sprintf("%s seed=%d k=%d: %s", n.name, seed, k, line))
			}
		}
	}
	if len(got) != len(boundGolden) {
		t.Fatalf("%d cases, %d golden lines; the cases read:\n%s", len(got), len(boundGolden), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != boundGolden[i] {
			t.Errorf("case %d:\n got %s\nwant %s", i, got[i], boundGolden[i])
		}
	}
	if !viaFullCheck {
		t.Error("no case certified its bound through a full check; the Min-fill path went untested")
	}
}

// TestBoundScanRepeatedKeys: a necessary predicate whose Keys lists
// every key twice blocks like one listing it once, so the §4.2 scan on
// boundInput reports the same m, M, evaluations, hits and bound.block
// trail either way — in particular, no group meets itself as an earlier
// candidate under its repeated key.
func TestBoundScanRepeatedKeys(t *testing.T) {
	twice := toyN()
	keys := twice.Keys
	twice.Keys = func(r *records.Record) []string {
		once := keys(r)
		return append(append([]string(nil), once...), once...)
	}
	d, groups := boundInput(t, 0)
	for _, k := range []int{1, 5, 10, 40} {
		want, _, _ := traceBound(t, d, groups, toyN(), k)
		if got, _, _ := traceBound(t, d, groups, twice, k); got != want {
			t.Errorf("k=%d, keys listed twice:\n got %s\nwant %s", k, got, want)
		}
	}
}
