// Package classifier implements the learned pairwise duplicate criterion P
// of the paper (§6.1): a binary logistic-regression classifier over a
// vector of string-similarity features that "takes as input a pair of
// records and outputs their signed score of being duplicates of each
// other". Positive scores indicate duplicates, negative scores
// non-duplicates, and the magnitude reflects confidence — exactly the
// contract the correlation-clustering objective needs.
package classifier

import (
	"fmt"
	"math"
	"math/rand"

	"topkdedup/internal/obs"
	"topkdedup/internal/parallel"
	"topkdedup/internal/records"
)

// FeatureSet maps a record pair to a numeric feature vector. Feature
// values should be roughly in [0, 1]; Names documents each position.
type FeatureSet struct {
	Names []string
	Vec   func(a, b *records.Record) []float64
}

// Model is a trained logistic-regression pair scorer.
type Model struct {
	Feats   FeatureSet
	Weights []float64
	Bias    float64
}

// Score returns the signed duplicate score of the pair: the log-odds
// w·x + b of the logistic model. Positive means duplicate.
func (m *Model) Score(a, b *records.Record) float64 {
	x := m.Feats.Vec(a, b)
	s := m.Bias
	for i, w := range m.Weights {
		s += w * x[i]
	}
	return s
}

// Prob returns the duplicate probability sigmoid(Score).
func (m *Model) Prob(a, b *records.Record) float64 {
	return sigmoid(m.Score(a, b))
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// LabeledPair is a training example.
type LabeledPair struct {
	A, B int
	Dup  bool
}

// The SGD schedule of Train: full passes over the shuffled training
// pairs, the initial learning rate (decayed as rate/(1 + 0.1·epoch)), and
// the L2 regularisation strength.
const (
	trainEpochs       = 30
	trainLearningRate = 0.5
	trainL2           = 1e-4
)

// TrainOptions controls gradient-descent training.
type TrainOptions struct {
	// Seed for shuffling (default 1).
	Seed int64
	// Workers bounds the worker pool for the feature-extraction
	// precompute (<= 0 means all CPUs, 1 is serial). The SGD loop itself
	// stays serial — it is inherently sequential and cheap next to
	// feature extraction. Feats.Vec must be safe for concurrent use when
	// Workers != 1. The trained model is identical at every worker count.
	Workers int
	// Sink, when non-nil, receives the classifier.features.* and
	// classifier.train.* metrics (see OBSERVABILITY.md). Observational
	// only: the trained model is byte-identical with or without it.
	Sink obs.Sink
}

// Train fits a logistic-regression model on the labelled pairs with
// mini-batchless SGD and a decaying learning rate. It returns an error
// when there are no pairs or only one class.
func Train(d *records.Dataset, feats FeatureSet, pairs []LabeledPair, opts TrainOptions) (*Model, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("classifier: no training pairs")
	}
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.Dup {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("classifier: need both classes, got %d positive / %d negative", pos, neg)
	}

	// Precompute feature vectors once — the expensive part of training,
	// and embarrassingly parallel (one slot per pair; the dimension check
	// folds serially afterwards).
	dim := len(feats.Names)
	xs := make([][]float64, len(pairs))
	ys := make([]float64, len(pairs))
	featSpan := obs.StartSpan(opts.Sink, "classifier.features")
	parallel.For(opts.Workers, len(pairs), func(i int) {
		p := pairs[i]
		xs[i] = feats.Vec(d.Recs[p.A], d.Recs[p.B])
		if p.Dup {
			ys[i] = 1
		}
	})
	featSpan.End()
	obs.Count(opts.Sink, "classifier.features.pairs", int64(len(pairs)))
	for i := range xs {
		if len(xs[i]) != dim {
			return nil, fmt.Errorf("classifier: feature vector length %d != %d names", len(xs[i]), dim)
		}
	}
	// Class-balance weights so the skewed negative pool does not drown
	// the positives.
	wPos := float64(len(pairs)) / (2 * float64(pos))
	wNeg := float64(len(pairs)) / (2 * float64(neg))

	m := &Model{Feats: feats, Weights: make([]float64, dim)}
	trainSpan := obs.StartSpan(opts.Sink, "classifier.train")
	defer trainSpan.End()
	r := rand.New(rand.NewSource(opts.Seed))
	order := r.Perm(len(pairs))
	for epoch := 0; epoch < trainEpochs; epoch++ {
		lr := trainLearningRate / (1 + 0.1*float64(epoch))
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x, y := xs[i], ys[i]
			z := m.Bias
			for j, w := range m.Weights {
				z += w * x[j]
			}
			p := sigmoid(z)
			cw := wNeg
			if y == 1 {
				cw = wPos
			}
			g := cw * (p - y)
			for j := range m.Weights {
				m.Weights[j] -= lr * (g*x[j] + trainL2*m.Weights[j])
			}
			m.Bias -= lr * g
		}
	}
	return m, nil
}

// Accuracy returns the fraction of pairs the model classifies correctly
// (score > 0 for duplicates, <= 0 otherwise).
func (m *Model) Accuracy(d *records.Dataset, pairs []LabeledPair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	correct := 0
	for _, p := range pairs {
		if (m.Score(d.Recs[p.A], d.Recs[p.B]) > 0) == p.Dup {
			correct++
		}
	}
	return float64(correct) / float64(len(pairs))
}
