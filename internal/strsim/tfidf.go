package strsim

import (
	"math"
	"strings"
)

// Corpus accumulates document-frequency statistics over a record corpus so
// that predicates and similarity functions can ask for IDF weights — e.g.
// the paper's sufficient predicate S1 for citations requires "the minimum
// IDF over two author words is at least 13", i.e. the names must be
// sufficiently rare.
//
// The zero value is empty and ready to use; call AddDoc for every record
// field value, then Freeze (optional but recommended) before querying.
type Corpus struct {
	docCount int
	df       map[string]int
	frozen   bool
	// cached log((1+N)/(1+df)) + 1 values, filled lazily after Freeze.
	idf map[string]float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{df: make(map[string]int)}
}

// AddDoc tokenises the value and counts each distinct token once toward
// document frequency. It must not be called after Freeze.
func (c *Corpus) AddDoc(value string) {
	if c.frozen {
		panic("strsim: AddDoc called on frozen Corpus")
	}
	if c.df == nil {
		c.df = make(map[string]int)
	}
	c.docCount++
	for t := range TokenSet(value) {
		c.df[t]++
	}
}

// Freeze marks the corpus complete and precomputes the IDF cache.
func (c *Corpus) Freeze() {
	if c.frozen {
		return
	}
	c.frozen = true
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = c.idfValue(df)
	}
}

// DocCount returns the number of documents added.
func (c *Corpus) DocCount() int { return c.docCount }

func (c *Corpus) idfValue(df int) float64 {
	// Smoothed IDF in natural-log space. Unseen tokens (df=0) get the
	// maximum weight log(1+N)+1.
	return math.Log(float64(1+c.docCount)/float64(1+df)) + 1
}

// IDF returns the smoothed inverse document frequency of token (lower-cased
// single token). Tokens never seen get the maximum IDF.
func (c *Corpus) IDF(token string) float64 {
	if c.frozen {
		if v, ok := c.idf[token]; ok {
			return v
		}
		return c.idfValue(0)
	}
	return c.idfValue(c.df[token])
}

// MinIDF returns the minimum IDF over the tokens of value, or 0 if value
// has no tokens. The paper's S1 uses this to require all name words to be
// rare.
func (c *Corpus) MinIDF(value string) float64 {
	toks := Tokenize(value)
	if len(toks) == 0 {
		return 0
	}
	minV := math.Inf(1)
	for _, t := range toks {
		if v := c.IDF(t); v < minV {
			minV = v
		}
	}
	return minV
}

// MaxMatchingIDF returns the maximum IDF over tokens common to a and b,
// or 0 when they share no token. Used by the paper's custom author
// similarity ("maximum IDF weight of matching words").
func (c *Corpus) MaxMatchingIDF(a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.MaxMatchingIDF(c)
}

// MaxIDF returns the largest IDF value any token can take in this corpus
// (the weight of an unseen token). Useful for normalising IDF-based scores
// into [0,1].
func (c *Corpus) MaxIDF() float64 { return c.idfValue(0) }

// TFIDFCosine returns the cosine similarity of the TF-IDF vectors of a and
// b. Term frequency is raw count within the string; weights use the
// corpus's smoothed IDF. Result is in [0,1]; two token-less strings give 1.
//
// The vectors are the pair scratch's sorted term slices (no per-call
// maps), and every floating sum accumulates in sorted term order —
// deterministic run to run, where the previous map-iteration
// implementation let the summation order (and hence the low bits of the
// result) vary.
func (c *Corpus) TFIDFCosine(a, b string) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.TFIDFCosine(c)
}

// TFIDFCosine is Corpus.TFIDFCosine on the pair's term vectors.
func (ps *PairScratch) TFIDFCosine(c *Corpus) float64 {
	ta, tb := ps.a.termVector(), ps.b.termVector()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var dot float64
	na, nb := tfidfNorm(c, ta), tfidfNorm(c, tb)
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		switch cmp := strings.Compare(ta[i].term, tb[j].term); {
		case cmp == 0:
			w := c.IDF(ta[i].term)
			dot += float64(ta[i].tf) * w * float64(tb[j].tf) * w
			i++
			j++
		case cmp < 0:
			i++
		default:
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / math.Sqrt(na*nb)
	if sim > 1 { // guard tiny float overshoot
		sim = 1
	}
	return sim
}

// tfidfNorm is the squared norm of a term vector's TF-IDF weights,
// summed in term order.
func tfidfNorm(c *Corpus, terms []termWeight) float64 {
	var n float64
	for _, t := range terms {
		v := float64(t.tf) * c.IDF(t.term)
		n += v * v
	}
	return n
}
