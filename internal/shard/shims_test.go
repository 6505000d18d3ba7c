package shard

import (
	"reflect"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// TestRunMatchesSingleMachineOnDomains is the contract the benchmark
// harness checks: at any shard count Run's groups are core.PrunedDedup's,
// from singletons or from a given grouping, and no transport is counted.
func TestRunMatchesSingleMachineOnDomains(t *testing.T) {
	cit := datagen.Citations(datagen.DefaultCitationConfig(1500))
	stu := datagen.Students(datagen.DefaultStudentConfig(1500))
	for _, dom := range []struct {
		name   string
		d      *records.Dataset
		levels []predicate.Level
	}{
		{"citations", cit, domains.Citations(domains.BuildDistinctCorpus(cit, datagen.FieldAuthor), domains.CitationOptions{}).Levels},
		{"students", stu, domains.Students(domains.StudentOptions{}).Levels},
	} {
		want, err := core.PrunedDedup(dom.d, dom.levels, core.Options{K: 10, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, groups := range [][]core.Group{nil, core.SingletonGroups(dom.d)} {
			got, rs, err := Run(dom.d, groups, dom.levels, Options{K: 10, Shards: 2})
			if err != nil {
				t.Fatalf("%s: %v", dom.name, err)
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) || rs.TransportCalls != 0 {
				t.Fatalf("%s (start groups given: %v): %d groups, %d transport calls; want core.PrunedDedup's %d groups and 0",
					dom.name, groups != nil, len(got.Groups), rs.TransportCalls, len(want.Groups))
			}
		}
	}
}

// TestRunDegenerateInputs: Run reports what core.PrunedDedup reports on
// a K below 1 or no levels, and answers an empty dataset with nothing.
func TestRunDegenerateInputs(t *testing.T) {
	levels := domains.Students(domains.StudentOptions{}).Levels
	empty := records.New("empty", "name")
	if _, _, err := Run(empty, nil, levels, Options{K: 0, Shards: 2}); err == nil {
		t.Fatal("K=0: want error")
	}
	res, _, err := Run(empty, nil, levels, Options{K: 3, Shards: 4})
	if err != nil || len(res.Groups) != 0 || len(res.Stats) != 0 {
		t.Fatalf("empty dataset: res %+v err %v", res, err)
	}
	if _, _, err := Run(datagen.Students(datagen.DefaultStudentConfig(20)), nil, nil, Options{K: 2, Shards: 2}); err == nil {
		t.Fatal("no levels: want error")
	}
}
