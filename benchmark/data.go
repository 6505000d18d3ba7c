package main

import (
	"fmt"
	"time"

	topk "topkdedup"
	"topkdedup/internal/classifier"
	"topkdedup/internal/datagen"
	"topkdedup/internal/domains"
	"topkdedup/internal/server"
)

// sizes are the frozen sequence lengths of one episode of each workload
// (README.md has the calibration record). A run repeats whole episodes,
// each from a fresh set-up, until --seconds of measured time is used, so
// every op runs against the same state on every commit and a faster
// commit completes more episodes, not later and costlier ops.
type sizes struct {
	// batch_citations: record target and timed rounds per episode.
	batchRecords, batchRounds int
	// serve_read: records seeded, and cycles of one /ingest plus
	// readRepeats of each of the seven query shapes.
	readSeeded, readCycles int
	// serve_ingest: records seeded and /ingest batches of ingestBatch.
	ingestSeeded, ingestBatches int
	// serve_mixed: records seeded, and ops in the mix.
	mixedSeeded, mixedOps int
}

const (
	readRepeats = 4  // times each query shape is asked per ingest in serve_read
	readBatch   = 20 // records per /ingest in serve_read and serve_mixed
	ingestBatch = 10 // records per /ingest in serve_ingest
)

var frozenSizes = sizes{
	batchRecords: 12000, batchRounds: 3,
	readSeeded: 3000, readCycles: 10,
	ingestSeeded: 2000, ingestBatches: 1000,
	mixedSeeded: 4000, mixedOps: 1000,
}

// scaled shrinks every length by f (smoke tests only; the committed
// numbers are measured at f = 1).
func (s sizes) scaled(f float64) sizes {
	sc := func(n, min int) int {
		if v := int(float64(n) * f); v > min {
			return v
		}
		return min
	}
	return sizes{
		batchRecords: sc(s.batchRecords, 300), batchRounds: sc(s.batchRounds, 1),
		readSeeded: sc(s.readSeeded, 150), readCycles: sc(s.readCycles, 2),
		ingestSeeded: sc(s.ingestSeeded, 100), ingestBatches: sc(s.ingestBatches, 20),
		mixedSeeded: sc(s.mixedSeeded, 200), mixedOps: sc(s.mixedOps, 100),
	}
}

// dataset is one generated domain: records, predicate levels and,
// optionally, the trained final scorer. Only the records and requests
// derived from it reach the program under test.
type dataset struct {
	d      *topk.Dataset
	levels []topk.Level
	scorer topk.PairScorer // nil: no scorer, R capped at 1
	// genS and trainS split set-up time between datagen and classifier.
	genS, trainS float64
}

// genCitations builds the citation domain the way
// experiments.CitationSetup does, but with the generator and trainer
// seeded from the run's seed (CitationSetup hard-codes both).
func genCitations(target int, seed int64, withModel bool) (*dataset, error) {
	start := time.Now()
	cfg := datagen.DefaultCitationConfig(target)
	cfg.Seed = seed
	d := datagen.Citations(cfg)
	dom := domains.Citations(domains.BuildDistinctCorpus(d, datagen.FieldAuthor), domains.CitationOptions{})
	ds := &dataset{d: d, levels: dom.Levels, genS: time.Since(start).Seconds()}
	if withModel {
		if err := ds.train(dom, seed); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// genStudents builds the students domain with a trained scorer.
func genStudents(target int, seed int64) (*dataset, error) {
	start := time.Now()
	cfg := datagen.DefaultStudentConfig(target)
	cfg.Seed = seed
	d := datagen.Students(cfg)
	dom := domains.Students(domains.StudentOptions{})
	ds := &dataset{d: d, levels: dom.Levels, genS: time.Since(start).Seconds()}
	if err := ds.train(dom, seed); err != nil {
		return nil, err
	}
	return ds, nil
}

// train fits the domain's pairwise scorer as the paper does for Figure 7
// (half the ground-truth groups, hard negatives from the last necessary
// predicate's blocking keys), without the held-out accuracy pass the
// experiments package adds for its tables.
func (ds *dataset) train(dom domains.Domain, seed int64) error {
	start := time.Now()
	train, _ := classifier.SplitGroups(ds.d, 0.5, seed)
	lastN := dom.Levels[len(dom.Levels)-1].Necessary
	pairs := classifier.SamplePairs(ds.d, train, classifier.SampleOptions{
		MaxPositive:         4000,
		NegativePerPositive: 3,
		Candidates:          func(id int) []string { return lastN.Keys(ds.d.Recs[id]) },
		Seed:                seed,
	})
	feats := classifier.FeatureSet{Names: dom.Features.Names, Vec: dom.Features.Vec}
	model, err := classifier.Train(ds.d, feats, pairs, classifier.TrainOptions{Seed: seed})
	if err != nil {
		return fmt.Errorf("training %s scorer: %w", dom.Name, err)
	}
	ds.scorer = model
	ds.trainS = time.Since(start).Seconds()
	return nil
}

// ingestRecords converts records [from, to) to the /ingest wire shape.
func (ds *dataset) ingestRecords(from, to int) []server.IngestRecord {
	out := make([]server.IngestRecord, 0, to-from)
	for _, r := range ds.d.Recs[from:to] {
		out = append(out, server.IngestRecord{Weight: r.Weight, Truth: r.Truth, Values: valuesOf(ds, r)})
	}
	return out
}

// valuesOf flattens a record's fields into schema order.
func valuesOf(ds *dataset, r *topk.Record) []string {
	values := make([]string, len(ds.d.Schema))
	for i, f := range ds.d.Schema {
		values[i] = r.Fields[f]
	}
	return values
}

// prefix returns the first n records as a dataset of their own, for
// Server.Seed. Weights are copied as generated: Seed, unlike /ingest,
// does not read a zero weight as 1.
func (ds *dataset) prefix(n int) *topk.Dataset {
	d := topk.NewDataset(ds.d.Name, ds.d.Schema...)
	for _, r := range ds.d.Recs[:n] {
		d.Append(r.Weight, r.Truth, valuesOf(ds, r)...)
	}
	return d
}

// weightOf is a wire record's weight as the server reads it: an omitted
// weight counts 1.
func weightOf(r server.IngestRecord) float64 {
	if r.Weight == 0 {
		return 1
	}
	return r.Weight
}

// appendRecords appends wire records to d the way the server applies them.
func appendRecords(d *topk.Dataset, recs []server.IngestRecord) {
	for _, r := range recs {
		d.Append(weightOf(r), r.Truth, r.Values...)
	}
}
