package strsim

import "math"

// Hybrid token-level similarity measures from the record-linkage
// literature (Cohen, Ravikumar & Fienberg 2003 — the toolkit the paper's
// similarity functions draw on): Monge-Elkan, Soft-TFIDF, and the
// Needleman-Wunsch alignment score they build on.

// NeedlemanWunsch returns the global-alignment similarity of a and b in
// [0, 1]: match +1, mismatch -1, gap -1 (affine-free), normalised by the
// longer length and clamped at 0. Two empty strings give 1.
func NeedlemanWunsch(a, b string) float64 {
	ps := GetPairScratch()
	defer ps.Release()
	return ps.needlemanWunsch(a, b)
}

// needlemanWunsch is NeedlemanWunsch on the scratch's DP rows.
func (ps *PairScratch) needlemanWunsch(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev, cur := ps.dpRows(len(b) + 1)
	for j := range prev {
		prev[j] = -j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = -i
		for j := 1; j <= len(b); j++ {
			s := 1
			if a[i-1] != b[j-1] {
				s = -1
			}
			best := prev[j-1] + s
			if d := prev[j] - 1; d > best {
				best = d
			}
			if d := cur[j-1] - 1; d > best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	sim := float64(prev[len(b)]) / float64(max(len(a), len(b)))
	if sim < 0 {
		sim = 0
	}
	return sim
}

// MongeElkan returns the Monge-Elkan similarity of two strings: for each
// token of the shorter side, the best inner similarity against the other
// side's tokens, averaged. inner defaults to JaroWinkler when nil. The
// measure is made symmetric by taking the max of both directions.
func MongeElkan(a, b string, inner func(x, y string) float64) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.MongeElkan(inner)
}

// MongeElkan is MongeElkan on the pair's tokens.
func (ps *PairScratch) MongeElkan(inner func(x, y string) float64) float64 {
	ta, tb := ps.a.toks, ps.b.toks
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	ab, ba := ps.mongeElkanDir(ta, tb, inner), ps.mongeElkanDir(tb, ta, inner)
	if ab > ba {
		return ab
	}
	return ba
}

// innerSim is inner(x, y), or JaroWinkler on the scratch's buffers when
// inner is nil: the token similarity of MongeElkan and SoftTFIDF.
func (ps *PairScratch) innerSim(inner func(x, y string) float64, x, y string) float64 {
	if inner == nil {
		return ps.jaroWinkler(x, y)
	}
	return inner(x, y)
}

// mongeElkanDir is one direction of MongeElkan: the mean over xs of the
// best inner similarity against ys.
func (ps *PairScratch) mongeElkanDir(xs, ys []string, inner func(x, y string) float64) float64 {
	var total float64
	for _, x := range xs {
		best := 0.0
		for _, y := range ys {
			if s := ps.innerSim(inner, x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(xs))
}

// SoftTFIDF returns the Soft-TFIDF similarity (Cohen et al.): a TF-IDF
// cosine where tokens need not match exactly — token pairs with inner
// similarity at least theta count, weighted by that similarity. inner
// defaults to JaroWinkler; theta defaults to 0.9 when <= 0.
func (c *Corpus) SoftTFIDF(a, b string, inner func(x, y string) float64, theta float64) float64 {
	ps := pairOf(a, b)
	defer ps.Release()
	return ps.SoftTFIDF(c, inner, theta)
}

// SoftTFIDF is Corpus.SoftTFIDF on the pair's term vectors.
func (ps *PairScratch) SoftTFIDF(c *Corpus, inner func(x, y string) float64, theta float64) float64 {
	if theta <= 0 {
		theta = 0.9
	}
	// Sorted term vectors (not maps): every sum and best-match tie-break
	// below runs in sorted token order, deterministic run to run.
	ta, tb := ps.a.termVector(), ps.b.termVector()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	na, nb := tfidfNorm(c, ta), tfidfNorm(c, tb)
	if na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for _, x := range ta {
		bestSim, bestTok, bestTF := 0.0, "", 0
		for _, y := range tb {
			if s := ps.innerSim(inner, x.term, y.term); s >= theta && s > bestSim {
				bestSim, bestTok, bestTF = s, y.term, y.tf
			}
		}
		if bestTok == "" {
			continue
		}
		dot += float64(x.tf) * c.IDF(x.term) * float64(bestTF) * c.IDF(bestTok) * bestSim
	}
	sim := dot / math.Sqrt(na*nb)
	if sim > 1 {
		sim = 1
	}
	return sim
}
