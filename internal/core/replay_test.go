package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"topkdedup/internal/obs"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// nearN is a necessary predicate whose N-graph is not a union of
// cliques: same first letter (the blocking key, so a letter is a canopy
// component) and entity numbers at most 40 apart. Weight order visits a
// letter's entities in no particular numeric order, so the greedy
// independent set stalls where Min-fill still finds room and the
// controller's full checks do real work.
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

// boundTrace is what one scan leaves behind: its results and, from the
// trace, the span's attributes and its bound.block events without their
// timestamps.
type boundTrace struct {
	M           int
	Lower       float64
	Evals, Hits int64
	Attrs       []obs.Attr
	Blocks      [][]obs.Attr
}

func traceBound(t *testing.T, scan func(ctx context.Context) (int, float64, int64, int64, error)) boundTrace {
	t.Helper()
	rec := obs.NewRecorder(1)
	ctx, root := rec.StartTrace(context.Background(), "test")
	var bt boundTrace
	var err error
	bt.M, bt.Lower, bt.Evals, bt.Hits, err = scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	for _, sp := range rec.Spans(root.TraceID()) {
		if sp.Name != "core.bound" {
			continue
		}
		bt.Attrs = sp.Attrs
		for _, ev := range sp.Events {
			if ev.Name != "bound.block" {
				t.Fatalf("unexpected event %q", ev.Name)
			}
			bt.Blocks = append(bt.Blocks, ev.Attrs)
		}
	}
	return bt
}

// TestReplayBoundPartsInvariant: cutting the group list along canopy
// components into P parts, each scanned by its own BoundScanner, changes
// nothing the replay reports — (m, M, evals, hits), the span attributes
// and the bound.block event sequence are those of the one-part scan.
// This is the invariant the sharded coordinator rests on (its parts are
// the shards), checked here without a transport in the way.
func TestReplayBoundPartsInvariant(t *testing.T) {
	viaFullCheck := false // some scan certified m by Min-fill, behind the ranks consumed
	for _, n := range []predicate.P{toyN(), nearN()} {
		for seed := int64(0); seed < 2; seed++ {
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
				t.Fatalf("scan limit %d does not span several blocks", limit)
			}
			for _, k := range []int{1, 5, 20, 100, 142, 150} {
				want := traceBound(t, func(ctx context.Context) (int, float64, int64, int64, error) {
					m, lower, evals, hits := EstimateLowerBoundCtx(ctx, d, groups, n, k, 1)
					return m, lower, evals, hits, nil
				})
				if len(want.Blocks) == 0 {
					t.Fatalf("%s k=%d: one-part scan recorded no bound.block event", n.Name, k)
				}
				if last := want.Blocks[len(want.Blocks)-1]; want.M > 0 && float64(want.M) < last[0].Num {
					viaFullCheck = true
				}
				for _, parts := range []int{1, 2, 3, 5} {
					// A letter is a canopy component; deal the letters out.
					partOfLetter := make(map[byte]int32)
					partOf := make([]int32, len(groups))
					local := make([][]Group, parts)
					for r, g := range groups {
						letter := d.Recs[g.Rep].Field("name")[0]
						p, ok := partOfLetter[letter]
						if !ok {
							p = int32(rng.Intn(parts))
							partOfLetter[letter] = p
						}
						partOf[r] = p
						local[p] = append(local[p], g)
					}
					src := make(scanners, parts)
					for p := range src {
						src[p] = NewBoundScanner(d, local[p], n, 1)
					}
					got := traceBound(t, func(ctx context.Context) (int, float64, int64, int64, error) {
						return ReplayBound(ctx, "core.bound", groups, partOf, src, k)
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed=%d k=%d parts=%d: replay differs from the one-part scan\n got=%+v\nwant=%+v",
							n.Name, seed, k, parts, got, want)
					}
				}
			}
		}
	}
	if !viaFullCheck {
		t.Error("no case certified its bound through a full check; the CPN fold went untested")
	}
}

// failingParts errors on the call-th call to either method.
type failingParts struct {
	scanners
	call *int
}

func (f failingParts) tick() error {
	if *f.call--; *f.call == 0 {
		return fmt.Errorf("part unreachable")
	}
	return nil
}

func (f failingParts) Scan(ctx context.Context, counts []int) ([]PartScan, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.scanners.Scan(ctx, counts)
}

func (f failingParts) CPN(ctx context.Context, prefix []int) (int, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.scanners.CPN(ctx, prefix)
}

// TestReplayBoundPassesErrorsThrough: whichever call of the parts source
// fails — a scan block or a CPN probe in the middle of a full check —
// the replay stops and returns that error with no bound.
func TestReplayBoundPassesErrorsThrough(t *testing.T) {
	d := genDataset(5, 120, 4)
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	const k = 9 // more than the six letters: the greedy bound stalls into full checks
	calls := -1 // never fails; counts down from -1
	if _, _, _, _, err := ReplayBound(context.Background(), "core.bound", groups, nil,
		failingParts{scanners{NewBoundScanner(d, groups, toyN(), 1)}, &calls}, k); err != nil {
		t.Fatal(err)
	}
	total := -1 - calls
	if total < 3 {
		t.Fatalf("scan made %d source calls; want a scan and some CPN probes", total)
	}
	for fail := 1; fail <= total; fail++ {
		n := fail
		m, lower, _, _, err := ReplayBound(context.Background(), "core.bound", groups, nil,
			failingParts{scanners{NewBoundScanner(d, groups, toyN(), 1)}, &n}, k)
		if err == nil || m != 0 || lower != 0 {
			t.Fatalf("failure on call %d of %d: got m=%d M=%v err=%v, want the error and no bound", fail, total, m, lower, err)
		}
	}
}
