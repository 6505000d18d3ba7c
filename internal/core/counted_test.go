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
// predicate — whose count filter skips every pair sharing fewer keys
// than its need — leaves the survivors, bounds and stage-0 kills of the
// Pruner over the predicate's {Name, Eval, Keys} literal twin, the
// need-1 path every hand-written predicate takes, and evaluates no more
// pairs than the twin. (The hits differ: a walk stops once its sum
// reaches M, and the filter moves a pair's evaluation to a later key.)
// Each form's counts are the same at every worker count. Under -race it is also the check that the
// per-worker walk slots are not shared.
func TestPrunerCountFormMatchesEvalTwin(t *testing.T) {
	cit := datagen.Citations(datagen.DefaultCitationConfig(1500))
	stu := datagen.Students(datagen.DefaultStudentConfig(4000))
	var evals, twinEvals int64
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
				groups, _ = Collapse(tc.d, groups, level.Sufficient)
				sortGroupsByWeight(groups)
				n := level.Necessary
				_, m, _, _ := EstimateLowerBoundCtx(context.Background(), tc.d, groups, n, k, 2)
				if m <= 0 {
					t.Fatalf("%s K=%d level %d: no lower bound, nothing to prune", tc.name, k, li+1)
				}
				twin := predicate.P{Name: n.Name, Eval: n.Eval, Keys: n.Keys}
				want, counted := runPruner(tc.d, groups, twin, m, 1), runPruner(tc.d, groups, n, m, 1)
				same := counted
				same.Evals, same.Hits = want.Evals, want.Hits
				if !reflect.DeepEqual(same, want) || counted.Evals > want.Evals {
					t.Errorf("%s K=%d level %d %s: count filter %s\nneed-1 twin %s",
						tc.name, k, li+1, n.Name, counted.summary(), want.summary())
				}
				for _, workers := range []int{2, 4} {
					for _, run := range []struct {
						p    predicate.P
						want prunerOutcome
					}{{twin, want}, {n, counted}} {
						if got := runPruner(tc.d, groups, run.p, m, workers); !reflect.DeepEqual(got, run.want) {
							t.Errorf("%s K=%d level %d %s workers=%d: %s\nwant %s",
								tc.name, k, li+1, n.Name, workers, got.summary(), run.want.summary())
						}
					}
				}
				t.Logf("%s K=%d level %d %s: %s; twin evaluates %d", tc.name, k, li+1, n.Name, counted.summary(), want.Evals)
				evals += counted.Evals
				twinEvals += want.Evals
				groups = want.Alive
			}
		}
	}
	if evals == 0 || evals >= twinEvals {
		t.Errorf("count filters evaluated %d pairs, need-1 twins %d — the comparison exercised nothing", evals, twinEvals)
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
