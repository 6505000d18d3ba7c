package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"topkdedup/internal/classifier"
	"topkdedup/internal/domains"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

func TestKsForScale(t *testing.T) {
	ks := KsForScale(200000)
	if len(ks) != len(PaperKs) {
		t.Errorf("full sweep expected at 200k records, got %v", ks)
	}
	ks = KsForScale(300)
	for _, k := range ks {
		if k*150 > 300 && k != 1 {
			t.Errorf("K=%d too large for 300 records", k)
		}
	}
	if got := KsForScale(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("tiny data should still allow K=1, got %v", got)
	}
}

func TestPruningSweepCitationShape(t *testing.T) {
	dd, err := CitationSetup(SmallScale.Citations, false)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 10, 50}
	rows, err := PruningSweep(dd, ks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ks) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		last := r.Iters[len(r.Iters)-1]
		first := r.Iters[0]
		if last.SurvivorsPct > first.NGroupsPct {
			t.Errorf("K=%d: pruning grew the data (%v%% -> %v%%)",
				r.K, first.NGroupsPct, last.SurvivorsPct)
		}
		if first.NGroupsPct > 100 {
			t.Errorf("collapse percentage out of range: %v", first.NGroupsPct)
		}
	}
	// Paper shape: small K prunes far harder than large K.
	if rows[0].Iters[len(rows[0].Iters)-1].SurvivorsPct >
		rows[2].Iters[len(rows[2].Iters)-1].SurvivorsPct {
		t.Errorf("K=1 should retain less data than K=50: %v%% vs %v%%",
			rows[0].Iters[len(rows[0].Iters)-1].SurvivorsPct,
			rows[2].Iters[len(rows[2].Iters)-1].SurvivorsPct)
	}
	// M skew: the K=1 lower bound should dwarf the K=50 one.
	if rows[0].Iters[0].LowerBound <= rows[2].Iters[0].LowerBound {
		t.Errorf("M should shrink with K: %v vs %v",
			rows[0].Iters[0].LowerBound, rows[2].Iters[0].LowerBound)
	}
	var buf bytes.Buffer
	RenderPruneTable(&buf, "Citations", rows)
	if !strings.Contains(buf.String(), "Citations") || !strings.Contains(buf.String(), "n'%") {
		t.Errorf("table rendering wrong:\n%s", buf.String())
	}
}

func TestPruningSweepStudentsAndAddresses(t *testing.T) {
	for _, setup := range []func(int, bool) (*DomainData, error){StudentSetup, AddressSetup} {
		dd, err := setup(SmallScale.Students, false)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := PruningSweep(dd, []int{1, 10}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			last := r.Iters[len(r.Iters)-1]
			if last.Survivors <= 0 {
				t.Errorf("%s K=%d: no survivors", dd.Name, r.K)
			}
			if last.SurvivorsPct > 60 {
				t.Errorf("%s K=%d: weak pruning, %v%% survive", dd.Name, r.K, last.SurvivorsPct)
			}
		}
	}
}

func TestPrunePassAblationMonotone(t *testing.T) {
	dd, err := CitationSetup(SmallScale.Citations, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := PrunePassAblation(dd, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Survivors < rows[1].Survivors || rows[1].Survivors < rows[2].Survivors {
		t.Errorf("more passes must not keep more groups: %+v", rows)
	}
	var buf bytes.Buffer
	RenderPassTable(&buf, rows)
	if !strings.Contains(buf.String(), "passes") {
		t.Error("pass table rendering wrong")
	}
}

func TestFig6Shape(t *testing.T) {
	dd, err := CitationSetup(SmallScale.Fig6, true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig6(dd, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]TimingRow{}
	for _, r := range rows {
		if r.K == 1 {
			byMethod[r.Method] = r
		}
	}
	if len(byMethod) != 4 {
		t.Fatalf("expected 4 methods, got %v", byMethod)
	}
	none := byMethod["None"].PairEvals
	canopy := byMethod["Canopy"].PairEvals
	pruned := byMethod["Canopy+Collapse+Prune"].PairEvals
	if none <= canopy {
		t.Errorf("None (%d evals) must dominate Canopy (%d)", none, canopy)
	}
	if canopy < byMethod["Canopy+Collapse"].PairEvals {
		t.Errorf("Collapse should not increase P-evals: %d vs %d",
			canopy, byMethod["Canopy+Collapse"].PairEvals)
	}
	if pruned >= canopy {
		t.Errorf("Pruning must slash P-evals: %d vs canopy %d", pruned, canopy)
	}
	var buf bytes.Buffer
	RenderTimingTable(&buf, rows)
	if !strings.Contains(buf.String(), "None") {
		t.Error("timing table rendering wrong")
	}
}

// TestFig6EvalsRepeat: the P-evals column is a property of the data, not
// of the run. Each canopy walk skips pairs its union-find already
// connects, so its count depends on enumeration order, and the data here
// makes every order give a different count: per gadget, a hub (scored
// positive with everything) first connects six partners through key
// "c"; a probe then shares one private key with each partner and scores
// positive with the first only, so the walk evaluates probe pairs until
// it reaches that one — as many as the position of its key among the
// probe's keys.
func TestFig6EvalsRepeat(t *testing.T) {
	d := records.New("gadgets", "tag", "keys")
	for g := 0; g < 40; g++ {
		d.Append(1, "", "hub", fmt.Sprintf("g%d.c", g))
		probe := ""
		for p := 0; p < 6; p++ {
			probe += fmt.Sprintf("g%d.k%d ", g, p)
		}
		d.Append(1, "", "probe", probe)
		for p := 0; p < 6; p++ {
			tag := "other"
			if p == 3 {
				tag = "first"
			}
			d.Append(1, "", tag, fmt.Sprintf("g%d.c g%d.k%d", g, g, p))
		}
	}
	never := predicate.P{Name: "S", Eval: func(a, b *records.Record) bool { return false },
		Keys: func(r *records.Record) []string { return nil }}
	shared := predicate.P{Name: "N", Eval: func(a, b *records.Record) bool { return true },
		Keys: func(r *records.Record) []string { return strings.Fields(r.Field("keys")) }}
	positive := func(a, b *records.Record) []float64 {
		ta, tb := a.Field("tag"), b.Field("tag")
		if ta == "hub" || tb == "hub" || ta == "probe" && tb == "first" || ta == "first" && tb == "probe" {
			return []float64{1}
		}
		return []float64{-1}
	}
	dd := &DomainData{
		Data:   d,
		Domain: domains.Domain{Levels: []predicate.Level{{Sufficient: never, Necessary: shared}}},
		Model:  &classifier.Model{Feats: classifier.FeatureSet{Vec: positive}, Weights: []float64{1}},
	}
	for _, m := range Fig6Methods[1:] {
		first, err := RunFig6Method(dd, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := RunFig6Method(dd, m, 1)
		if first == 0 || again != first {
			t.Errorf("%s: %d P-evals on the first run, %d on the second over the same data", m, first, again)
		}
	}
}

func TestFig7AddressQuality(t *testing.T) {
	row, err := Fig7("address", SmallScale.Fig7)
	if err != nil {
		t.Fatal(err)
	}
	if row.Records == 0 || row.TruthGroups == 0 || row.ExactGroups == 0 {
		t.Fatalf("empty quality row: %+v", row)
	}
	if row.F1Embed < 90 {
		t.Errorf("embedding+segmentation F1 vs exact = %.1f, want >= 90", row.F1Embed)
	}
	if row.F1Embed < row.F1TC-5 {
		t.Errorf("embedding (%.1f) should compete with transitive closure (%.1f)",
			row.F1Embed, row.F1TC)
	}
}

func TestFig7AllAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset quality comparison is slow")
	}
	rows, err := Fig7All(SmallScale.Fig7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig7Datasets) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.F1Embed < 85 {
			t.Errorf("%s: F1 embed %.1f too low", r.Dataset, r.F1Embed)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	RenderFig7(&buf, rows)
	out := buf.String()
	for _, name := range Fig7Datasets {
		if !strings.Contains(out, name) {
			t.Errorf("render missing dataset %s", name)
		}
	}
}

func TestEmbedAblation(t *testing.T) {
	rows, err := EmbedAblation("address", SmallScale.Fig7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	scores := map[string]float64{}
	for _, r := range rows {
		scores[r.Order] = r.WithinScore
	}
	if scores["greedy-eq3"] < scores["random"] {
		t.Errorf("greedy embedding (%v) should beat random order (%v)",
			scores["greedy-eq3"], scores["random"])
	}
	var buf bytes.Buffer
	RenderEmbedAblation(&buf, rows)
	if !strings.Contains(buf.String(), "greedy-eq3") {
		t.Error("ablation table rendering wrong")
	}
}

func TestRankQueries(t *testing.T) {
	dd, err := CitationSetup(SmallScale.Citations, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RankQueries(dd, []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("expected >= 4 rows, got %d", len(rows))
	}
	// The rank query must never keep more than the count query.
	byK := map[int]map[string]int{}
	for _, r := range rows {
		if byK[r.K] == nil {
			byK[r.K] = map[string]int{}
		}
		byK[r.K][r.Query] = r.Survivors
	}
	for k, m := range byK {
		if m["topk-rank"] > m["topk-count"] {
			t.Errorf("K=%d: rank query kept more (%d) than count query (%d)",
				k, m["topk-rank"], m["topk-count"])
		}
	}
	var buf bytes.Buffer
	RenderRankTable(&buf, rows)
	if !strings.Contains(buf.String(), "thresholded-rank") {
		t.Error("rank table rendering wrong")
	}
}

func TestStreamVsBatch(t *testing.T) {
	rows, err := StreamVsBatch(SmallScale.Citations, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Survivors <= 0 {
			t.Errorf("batch %d: no survivors", r.Batch)
		}
		if i > 0 && r.Records <= rows[i-1].Records {
			t.Error("records must grow monotonically")
		}
	}
	var buf bytes.Buffer
	RenderStreamTable(&buf, rows)
	if !strings.Contains(buf.String(), "inc-query") {
		t.Error("stream table rendering wrong")
	}
}
