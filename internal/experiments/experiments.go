// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) on the synthetic dataset analogues, plus the
// ablations called out in DESIGN.md. Each experiment returns structured
// rows and can render the same table the paper prints; cmd/topkbench and
// the repository's benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"

	"topkdedup/internal/classifier"
	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/obs"
	"topkdedup/internal/records"
)

// metricsSink is the package-wide observability sink (SetMetrics). A
// plain var, not atomic: the experiment harness attaches a sink before
// running an experiment on the same goroutine.
var metricsSink obs.Sink

// SetMetrics attaches an observability sink to every experiment in this
// package: the pipeline phases emit their core.* metrics, exact
// clustering its cluster.exact.*, classifier training its
// classifier.*, and the experiments' own final scoring loops emit
// bench.final.{seconds,evals} (see OBSERVABILITY.md). Pass nil to
// detach. Observational only — experiment rows are identical with or
// without a sink. Not safe to swap concurrently with a running
// experiment.
func SetMetrics(s obs.Sink) { metricsSink = s }

// Scale selects dataset sizes. The paper ran 240,545 citation records,
// 169,221 student records, and 245,260 address records; Full mirrors
// that, Default is a laptop-friendly tenth, Small keeps unit tests fast.
type Scale struct {
	Citations int
	Students  int
	Addresses int
	// Fig6 is the citation-subset size for the timing comparison (the
	// paper used a 45,000-record subset because the quadratic baselines
	// "took too long on the entire data"; the None baseline is quadratic
	// in it).
	Fig6 int
	// Fig7 sizes the four small labelled benchmarks (records target).
	Fig7 int
}

// Standard scales.
var (
	FullScale    = Scale{Citations: 240545, Students: 169221, Addresses: 245260, Fig6: 45000, Fig7: 1200}
	DefaultScale = Scale{Citations: 24000, Students: 17000, Addresses: 24000, Fig6: 4500, Fig7: 900}
	SmallScale   = Scale{Citations: 4000, Students: 3000, Addresses: 4000, Fig6: 800, Fig7: 300}
)

// PaperKs is the K sweep of Figures 2-4 and 6.
var PaperKs = []int{1, 5, 10, 50, 100, 500, 1000}

// KsForScale trims the sweep so K stays meaningful at reduced data sizes:
// the paper runs K=1000 against 169k-245k records (a ratio of ~200), and
// far below that ratio the K-th group inevitably has trivial weight and
// no pruning is possible.
func KsForScale(records int) []int {
	var ks []int
	for _, k := range PaperKs {
		if k*150 <= records {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		ks = []int{1}
	}
	return ks
}

// DomainData bundles a generated dataset with its predicate domain and a
// trained pairwise scorer.
type DomainData struct {
	Name    string
	Data    *records.Dataset
	Domain  domains.Domain
	Model   *classifier.Model
	PairAcc float64 // held-out pair accuracy of the scorer
}

// trainModel fits the domain's classifier exactly as the paper does for
// Figure 7: half the ground-truth groups train a logistic classifier over
// the domain's similarity features.
func trainModel(d *records.Dataset, dom domains.Domain, seed int64) (*classifier.Model, float64, error) {
	train, test := classifier.SplitGroups(d, 0.5, seed)
	lastN := dom.Levels[len(dom.Levels)-1].Necessary
	cand := func(id int) []string { return lastN.Keys(d.Recs[id]) }
	pairs := classifier.SamplePairs(d, train, classifier.SampleOptions{
		MaxPositive:         4000,
		NegativePerPositive: 3,
		Candidates:          cand,
		Seed:                seed,
	})
	feats := classifier.FeatureSet{Names: dom.Features.Names, Vec: dom.Features.Vec}
	model, err := classifier.Train(d, feats, pairs, classifier.TrainOptions{Seed: seed, Sink: metricsSink})
	if err != nil {
		return nil, 0, fmt.Errorf("training %s scorer: %w", dom.Name, err)
	}
	heldOut := classifier.SamplePairs(d, test, classifier.SampleOptions{
		MaxPositive:         1000,
		NegativePerPositive: 3,
		Candidates:          cand,
		Seed:                seed + 1,
	})
	acc := model.Accuracy(d, heldOut)
	return model, acc, nil
}

// CitationSetup generates the Citation dataset and its domain at the
// given record target, optionally with a trained scorer.
func CitationSetup(target int, withModel bool) (*DomainData, error) {
	d := datagen.Citations(datagen.DefaultCitationConfig(target))
	corpus := domains.BuildDistinctCorpus(d, datagen.FieldAuthor)
	dom := domains.Citations(corpus, domains.CitationOptions{})
	dd := &DomainData{Name: "citations", Data: d, Domain: dom}
	if withModel {
		m, acc, err := trainModel(d, dom, 11)
		if err != nil {
			return nil, err
		}
		dd.Model, dd.PairAcc = m, acc
	}
	return dd, nil
}

// StudentSetup generates the Students dataset and domain.
func StudentSetup(target int, withModel bool) (*DomainData, error) {
	return StudentSetupNoise(target, 0, withModel)
}

// StudentSetupNoise is StudentSetup with an explicit noise level
// (0 keeps the default). Low-noise variants make the §7 rank queries
// resolvable, which the E9 experiment contrasts with the default noise.
func StudentSetupNoise(target int, noise float64, withModel bool) (*DomainData, error) {
	cfg := datagen.DefaultStudentConfig(target)
	if noise > 0 {
		cfg.Noise = noise
	}
	d := datagen.Students(cfg)
	dom := domains.Students(domains.StudentOptions{})
	dd := &DomainData{Name: "students", Data: d, Domain: dom}
	if withModel {
		m, acc, err := trainModel(d, dom, 12)
		if err != nil {
			return nil, err
		}
		dd.Model, dd.PairAcc = m, acc
	}
	return dd, nil
}

// AddressSetup generates the Address dataset and domain.
func AddressSetup(target int, withModel bool) (*DomainData, error) {
	d := datagen.Addresses(datagen.DefaultAddressConfig(target))
	corpus := domains.BuildCorpus(d, datagen.FieldOwner, datagen.FieldAddress)
	dom := domains.Addresses(corpus)
	dd := &DomainData{Name: "addresses", Data: d, Domain: dom}
	if withModel {
		m, acc, err := trainModel(d, dom, 13)
		if err != nil {
			return nil, err
		}
		dd.Model, dd.PairAcc = m, acc
	}
	return dd, nil
}

// Fig7Setup generates one of the four small labelled benchmarks of
// Table 1 / Figure 7 by name: "authors", "restaurant", "address",
// "getoor".
func Fig7Setup(name string, target int) (*DomainData, error) {
	var (
		d   *records.Dataset
		dom domains.Domain
	)
	switch name {
	case "authors":
		d = datagen.AuthorNames(21, target)
		dom = domains.AuthorsOnly(domains.BuildCorpus(d, datagen.FieldAuthor))
	case "restaurant":
		d = datagen.Restaurants(datagen.RestaurantConfig{Seed: 22, NumRestaurants: target * 5 / 6, Noise: 0.8})
		dom = domains.Restaurants(domains.BuildCorpus(d, datagen.FieldOwner))
	case "address":
		d = datagen.AddressSample(23, target/3)
		dom = domains.Addresses(domains.BuildCorpus(d, datagen.FieldOwner, datagen.FieldAddress))
	case "getoor":
		d = datagen.Getoor(24, target)
		dom = domains.GetoorDomain(domains.BuildCorpus(d, datagen.FieldAuthor, datagen.FieldTitle))
	default:
		return nil, fmt.Errorf("unknown fig7 dataset %q", name)
	}
	dd := &DomainData{Name: name, Data: d, Domain: dom}
	m, acc, err := trainModel(d, dom, 31)
	if err != nil {
		return nil, err
	}
	dd.Model, dd.PairAcc = m, acc
	return dd, nil
}

// Fig7Datasets lists the Figure-7 benchmark names in paper order.
var Fig7Datasets = []string{"address", "authors", "getoor", "restaurant"}
