package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"topkdedup/internal/core"
	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// TestRunMatchesSingleMachineOnDomains is the byte-identity contract on
// the paper's own domains: citations (one canopy component, so every
// shard but one runs empty) and students (hundreds of components, so the
// bound exchange really merges parts). At every shard count Run's result
// serialises to core.PrunedDedup's bytes — groups, order, members,
// NGroups, MRank, LowerBound, BoundEvals, Survivors, ExactlyK — with only
// the shard-local collapse and prune eval counters and wall times
// zeroed.
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
		for _, k := range []int{1, 10} {
			want, err := core.PrunedDedup(dom.d, dom.levels, core.Options{K: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := resultBytes(t, want)
			for _, s := range []int{1, 2, 3, 5, 8} {
				got, rs, err := Run(dom.d, nil, dom.levels, Options{K: k, Shards: s, Workers: 2})
				if err != nil {
					t.Fatalf("%s k=%d shards=%d: %v", dom.name, k, s, err)
				}
				if gotBytes := resultBytes(t, got); gotBytes != wantBytes {
					t.Fatalf("%s k=%d shards=%d: sharded != single-machine\nsharded: %s\nsingle:  %s", dom.name, k, s, gotBytes, wantBytes)
				}
				if dom.name == "students" && rs.Components < 8 {
					t.Fatalf("students has %d canopy components; the multi-part case is not being exercised", rs.Components)
				}
			}
		}
	}
}

// TestShardedBoundEvalsEqualSingleMachine: the coordinator consumes the
// ranks the single-machine scan consumes and counts evaluations per
// consumed rank, so a sharded run's per-level BoundEvals (with MRank and
// LowerBound) are core.PrunedDedup's.
func TestShardedBoundEvalsEqualSingleMachine(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	d := records.New("bounds", "name")
	for e := 0; e < 60; e++ {
		for c := 1 + r.Intn(4); c > 0; c-- {
			d.Append(1+0.001*r.Float64(), fmt.Sprintf("E%03d", e), fmt.Sprintf("%c%03d.v%d", 'a'+e%9, e, r.Intn(3)))
		}
	}
	levels := toyLevels()
	sawEvals := false
	for _, shards := range []int{2, 3, 5} {
		for _, k := range []int{2, 4, 12} {
			want, err := core.PrunedDedup(d, levels, core.Options{K: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Run(d, nil, levels, Options{K: k, Shards: shards, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Stats) != len(want.Stats) {
				t.Fatalf("shards=%d k=%d: %d levels, want %d", shards, k, len(got.Stats), len(want.Stats))
			}
			for li, g := range got.Stats {
				w := want.Stats[li]
				sawEvals = sawEvals || w.BoundEvals > 0
				if g.BoundEvals != w.BoundEvals || g.MRank != w.MRank || g.LowerBound != w.LowerBound {
					t.Fatalf("shards=%d k=%d level %d: bound (evals %d, m %d, M %v), want (evals %d, m %d, M %v)",
						shards, k, li+1, g.BoundEvals, g.MRank, g.LowerBound, w.BoundEvals, w.MRank, w.LowerBound)
				}
			}
		}
	}
	if !sawEvals {
		t.Fatal("no single-machine bound scan evaluated a pair")
	}
}
