// Package topk answers TopK count queries over data with imprecise
// duplicates, implementing Sarawagi, Deshpande & Kasliwal, "Efficient
// Top-K Count Queries over Imprecise Duplicates" (EDBT 2009).
//
// Given a dataset whose records are noisy mentions of entities, the
// engine finds the K entities with the largest aggregate weight (count,
// score, ...) without deduplicating the whole dataset: cheap sufficient
// predicates collapse sure duplicates, cheap necessary predicates bound
// how large any group can grow, and everything that provably cannot reach
// the K largest groups is pruned (paper §4). Because duplicate resolution
// is inherently uncertain, the engine can return the R highest-scoring
// answers instead of a single hard one, via a polynomial-time
// segmentation search over a linear embedding of the surviving records
// (paper §5).
//
// # Quick start
//
//	eng := topk.New(dataset, levels, scorer, topk.Config{})
//	res, err := eng.TopK(10, 3) // 3 best answers to the Top-10 query
//
// Levels supply the sufficient/necessary predicate schedule; the scorer
// is any signed pairwise duplicate scorer (e.g. a trained
// classifier.Model). See examples/ for end-to-end programs.
package topk

import (
	"topkdedup/internal/core"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// Record is one noisy mention of an entity.
type Record = records.Record

// Dataset is an ordered collection of records with a field schema.
type Dataset = records.Dataset

// NewDataset creates an empty dataset with the given schema.
func NewDataset(name string, schema ...string) *Dataset {
	return records.New(name, schema...)
}

// LoadDataset reads a dataset from a TSV file written by Dataset.SaveTSV.
func LoadDataset(name, path string) (*Dataset, error) {
	return records.LoadTSV(name, path)
}

// LoadDatasetCSV reads a dataset from a CSV file with a
// "weight,truth,fields..." header (see Dataset.SaveCSV).
func LoadDatasetCSV(name, path string) (*Dataset, error) {
	return records.LoadCSV(name, path)
}

// Predicate is a cheap pairwise predicate with blocking keys. Use it to
// declare sufficient predicates (true ⇒ duplicates) and necessary
// predicates (duplicates ⇒ true).
type Predicate = predicate.P

// PredicateOf builds a Predicate from a per-record signature and a
// match on two signatures: sig extracts everything the predicate reads
// from one record, match decides a pair from the two signatures alone,
// and Eval is match(sig(a), sig(b)). The engine binds such a predicate
// to each phase's records — signatures computed once per record, then
// only match per pair — where a literal Predicate{Eval: ...} re-derives
// both sides on every pair. match must be pure and allocation-free;
// both functions must be safe for concurrent use when Workers != 1.
func PredicateOf[S any](name string, sig func(r *Record) S, match func(a, b S) bool, keys func(r *Record) []string) Predicate {
	return predicate.Of(name, sig, match, keys)
}

// Level pairs one sufficient with one necessary predicate; the engine
// runs levels in order of increasing cost and tightness.
type Level = predicate.Level

// Group is a set of records established to be duplicates of one entity.
type Group = core.Group

// LevelStats reports one pruning iteration (the columns of the paper's
// Figures 2-4: n, m, M, n′).
type LevelStats = core.LevelStats

// PairScorer is the final, expensive duplicate criterion P: a signed
// score, positive for duplicates, negative for non-duplicates, with
// magnitude reflecting confidence. classifier.Model implements it.
type PairScorer interface {
	Score(a, b *Record) float64
}

// PairScorerFunc adapts a plain function to PairScorer.
type PairScorerFunc func(a, b *Record) float64

// Score implements PairScorer.
func (f PairScorerFunc) Score(a, b *Record) float64 { return f(a, b) }
