package strsim

// Levenshtein returns the edit distance between a and b (unit costs for
// insert, delete, substitute), computed over bytes with two rolling rows.
func Levenshtein(a, b string) int {
	ps := GetPairScratch()
	defer ps.Release()
	return ps.levenshtein(a, b)
}

// levenshtein is Levenshtein on the scratch's DP rows.
func (ps *PairScratch) levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	prev, cur := ps.dpRows(len(a) + 1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		bj := b[j-1]
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == bj {
				cost = 0
			}
			m := prev[i-1] + cost        // substitute / match
			if d := prev[i] + 1; d < m { // delete
				m = d
			}
			if d := cur[i-1] + 1; d < m { // insert
				m = d
			}
			cur[i] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}

// EditSimilarity maps Levenshtein distance into [0,1]:
// 1 - dist/max(len(a), len(b)). Two empty strings give 1.
func EditSimilarity(a, b string) float64 {
	ps := GetPairScratch()
	defer ps.Release()
	return ps.editSimilarity(a, b)
}

func (ps *PairScratch) editSimilarity(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return 1 - float64(ps.levenshtein(a, b))/float64(max(len(a), len(b)))
}

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	ps := GetPairScratch()
	defer ps.Release()
	return ps.jaro(a, b)
}

// jaro is Jaro on the scratch's match flags.
func (ps *PairScratch) jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := max(len(a), len(b))/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch, bMatch := ps.matchFlags(len(a), len(b))
	matches := 0
	for i := 0; i < len(a); i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || a[i] != b[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < len(a); i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(a)) + m/float64(len(b)) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale p = 0.1 and maximum prefix length 4 — "an efficient approximation
// of edit distance specifically tailored for names" (paper §6.1.1).
func JaroWinkler(a, b string) float64 {
	ps := GetPairScratch()
	defer ps.Release()
	return ps.jaroWinkler(a, b)
}

func (ps *PairScratch) jaroWinkler(a, b string) float64 {
	j := ps.jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
