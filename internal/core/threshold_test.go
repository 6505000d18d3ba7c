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

// thresholdReference is the pruning of the §7.2 thresholded rank query
// as a level loop of its own: serial collapse and prune from singletons,
// M := t at every level, no bound scan and no early stop. Options'
// Threshold mode must reproduce it.
func thresholdReference(d *records.Dataset, levels []predicate.Level, t float64, passes int) *Result {
	pct := func(n int) float64 { return 100 * float64(n) / float64(d.Len()) }
	res := &Result{TotalRecords: d.Len()}
	groups := SingletonGroups(d)
	for li, level := range levels {
		st := LevelStats{Level: li + 1, LowerBound: t}
		groups, st.CollapseEvals = Collapse(d, groups, level.Sufficient)
		SortGroupsByWeight(groups)
		st.NGroups = len(groups)
		st.NGroupsPct = pct(len(groups))
		groups, st.PruneEvals = Prune(d, groups, level.Necessary, t, passes)
		st.Survivors = len(groups)
		st.SurvivorsPct = pct(len(groups))
		res.Stats = append(res.Stats, st)
	}
	res.Groups = groups
	return res
}

func stripStatTimes(res *Result) {
	for i := range res.Stats {
		res.Stats[i].CollapseTime, res.Stats[i].BoundTime, res.Stats[i].PruneTime = 0, 0, 0
	}
}

// TestThresholdModeMatchesReference: PrunedDedupCtx with Options.Threshold
// gives the reference loop's groups and per-level stats (times aside) on
// the toy domain and on citations and students at 2 k records, at every
// worker count, and never runs the bound scan.
func TestThresholdModeMatchesReference(t *testing.T) {
	type input struct {
		name   string
		d      *records.Dataset
		levels []predicate.Level
		ts     []float64
	}
	var inputs []input
	for seed := int64(1); seed <= 4; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("toy/%d", seed), genDataset(seed, 40, 12), toyLevels(), []float64{0.5, 2, 5, 9}})
	}
	cit := datagen.Citations(datagen.DefaultCitationConfig(2000))
	stu := datagen.Students(datagen.DefaultStudentConfig(2000))
	inputs = append(inputs,
		input{"citations", cit, domains.Citations(domains.BuildDistinctCorpus(cit, datagen.FieldAuthor), domains.CitationOptions{}).Levels, []float64{1, 5, 20}},
		input{"students", stu, domains.Students(domains.StudentOptions{}).Levels, []float64{1, 5, 20}},
	)
	pruned := 0
	for _, in := range inputs {
		for _, th := range in.ts {
			want := thresholdReference(in.d, in.levels, th, 2)
			stripStatTimes(want)
			for _, workers := range []int{1, 2} {
				got, err := PrunedDedupCtx(context.Background(), in.d, in.levels, Options{Threshold: th, Workers: workers})
				if err != nil {
					t.Fatalf("%s t=%g: %v", in.name, th, err)
				}
				stripStatTimes(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s t=%g workers=%d: threshold mode != reference\ngot  %+v\nwant %+v",
						in.name, th, workers, got.Stats, want.Stats)
				}
			}
			pruned += in.d.Len() - len(want.Groups)
		}
	}
	if pruned == 0 {
		t.Error("no threshold pruned anything — the comparison exercised nothing")
	}
}
