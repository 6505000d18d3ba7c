package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// prunerOutcome is everything a Pruner run leaves behind that a later
// phase or a counter reads.
type prunerOutcome struct {
	Alive        []Group
	Bounds       []float64
	Evals, Hits  int64
	Stage0Pruned int
}

func runPruner(d *records.Dataset, groups []Group, n predicate.P, m float64, workers int) prunerOutcome {
	p := NewPruner(d, groups, n, m, workers, nil)
	out := prunerOutcome{Stage0Pruned: p.Stage0Pruned()}
	for pass := 0; pass < 2; pass++ {
		pruned, evals, hits := p.PassCtx(context.Background())
		out.Evals += evals
		out.Hits += hits
		if pruned == 0 {
			break
		}
	}
	out.Alive = p.Alive()
	out.Bounds = append(out.Bounds, p.u...)
	return out
}

// TestPrunerCountFormMatchesEvalTwin: on citations and students, at
// every level, K and worker count, the Pruner over a domain's necessary
// predicate — which answers from the walk's shared-key count where the
// predicate declares that form — leaves the survivors, bounds, eval and
// hit counts and stage-0 kills of the Pruner over the predicate's
// {Name, Eval, Keys} literal twin, the Eval-only path every hand-written
// predicate takes. Under -race it is also the check that the per-worker
// count slices are not shared.
func TestPrunerCountFormMatchesEvalTwin(t *testing.T) {
	cit := datagen.Citations(datagen.DefaultCitationConfig(1500))
	stu := datagen.Students(datagen.DefaultStudentConfig(4000))
	counted, evals := 0, int64(0)
	for _, tc := range []struct {
		name   string
		d      *records.Dataset
		levels []predicate.Level
	}{
		{"citations", cit, domains.Citations(domains.BuildDistinctCorpus(cit, datagen.FieldAuthor), domains.CitationOptions{}).Levels},
		{"students", stu, domains.Students(domains.StudentOptions{}).Levels},
	} {
		for _, k := range []int{1, 10, 50} {
			groups := singletonGroups(tc.d)
			for li, level := range tc.levels {
				groups, _ = CollapseWorkers(tc.d, groups, level.Sufficient, 2)
				sortGroupsByWeight(groups)
				n := level.Necessary
				_, m, _, _ := EstimateLowerBoundCtx(context.Background(), tc.d, groups, n, k, 2)
				if m <= 0 {
					t.Fatalf("%s K=%d level %d: no lower bound, nothing to prune", tc.name, k, li+1)
				}
				twin := predicate.P{Name: n.Name, Eval: n.Eval, Keys: n.Keys}
				want := runPruner(tc.d, groups, twin, m, 1)
				for _, workers := range []int{1, 2, 4} {
					for _, p := range []predicate.P{n, twin} {
						got := runPruner(tc.d, groups, p, m, workers)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s K=%d level %d %s (count form %v) workers=%d: %s\nwant %s",
								tc.name, k, li+1, n.Name, p.Counted(), workers, got.summary(), want.summary())
						}
					}
				}
				t.Logf("%s K=%d level %d %s counted=%v: %s", tc.name, k, li+1, n.Name, n.Counted(), want.summary())
				if n.Counted() {
					counted++
					evals += want.Evals
				}
				groups = want.Alive
			}
		}
	}
	if counted == 0 || evals == 0 {
		t.Errorf("%d count-form prunes evaluating %d pairs — the comparison exercised nothing", counted, evals)
	}
}

func (o prunerOutcome) summary() string {
	var sum float64
	for _, b := range o.Bounds {
		sum += b
	}
	return fmt.Sprintf("%d survivors, bounds Σ %v, %d evals, %d hits, stage 0 killed %d",
		len(o.Alive), sum, o.Evals, o.Hits, o.Stage0Pruned)
}

// TestStage0RepeatedKeyCountsOnce: a necessary predicate whose Keys
// repeats its key gives the stage-0 bounds, kills and survivors of the
// one that lists it once — the bucket total holds each group's weight
// once.
func TestStage0RepeatedKeyCountsOnce(t *testing.T) {
	d := genDataset(7, 200, 8)
	groups, _ := Collapse(d, singletonGroups(d), toyS())
	sortGroupsByWeight(groups)
	_, m, _ := EstimateLowerBound(d, groups, toyN(), 3)
	if m <= 0 {
		t.Fatal("setup: no lower bound established")
	}
	twice := toyN()
	once := twice.Keys
	twice.Keys = func(r *records.Record) []string {
		keys := once(r)
		return append(keys, keys...)
	}
	want, got := NewPruner(d, groups, toyN(), m, 1, nil), NewPruner(d, groups, twice, m, 1, nil)
	if got.Stage0Pruned() != want.Stage0Pruned() || !reflect.DeepEqual(got.u, want.u) || !reflect.DeepEqual(got.live, want.live) {
		t.Errorf("repeated key: stage 0 killed %d, single key %d; bounds equal %v",
			got.Stage0Pruned(), want.Stage0Pruned(), reflect.DeepEqual(got.u, want.u))
	}
}
