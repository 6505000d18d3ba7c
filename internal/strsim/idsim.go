package strsim

// Sorted-id set measures: the hot predicate paths intern tokens and
// q-grams to dense int32 ids (see Cache.GramIDs / Cache.TokenIDs) and
// intersect by linear merge over sorted id slices instead of probing
// string-keyed maps. Counts are exact integers, so each measure returns
// bit-identical values to its map-based counterpart in setsim.go.

// IntersectSortedIDs returns |a ∩ b| for two ascending, duplicate-free
// id slices.
func IntersectSortedIDs(a, b []int32) int {
	common, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return common
}

// JaccardSortedIDs is Jaccard over sorted id slices: |A ∩ B| / |A ∪ B|,
// with two empty sets defined as similarity 1 and one empty set 0.
func JaccardSortedIDs(a, b []int32) float64 {
	return jaccardCounts(len(a), len(b), IntersectSortedIDs(a, b))
}

// OverlapSortedIDs is the overlap coefficient |A ∩ B| / min(|A|, |B|)
// over sorted id slices, with two empty sets giving 1 and one empty set 0.
func OverlapSortedIDs(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return overlapCounts(len(a), len(b), IntersectSortedIDs(a, b))
}

// OverlapCountClears is OverlapExceeds' verdict as a function of the
// intersection size alone: whether count common ids, against a smaller
// side of small ids, clear thr — ratio > thr when strict, ratio >= thr
// otherwise, with the ratio 0 when the smaller side is empty: for
// |A ∩ B| it is OverlapExceeds' answer, and OverlapNeed is the smallest
// count it holds for.
func OverlapCountClears(count, small int, thr float64, strict bool) bool {
	ratio := 0.0
	if small > 0 {
		ratio = float64(count) / float64(small)
	}
	if strict {
		return ratio > thr
	}
	return ratio >= thr
}

// OverlapNeed is the count filter of a gram-overlap predicate: the
// smallest count c >= 1 with OverlapCountClears(c, small, thr, strict),
// small+1 when no count up to small clears. For thresholds in [0, 1) it
// is non-decreasing in small, so for two sets the need of the smaller
// is the smaller need: two sets whose overlap clears thr share at least
// min(OverlapNeed(|A|), OverlapNeed(|B|)) ids.
func OverlapNeed(small int, thr float64, strict bool) int {
	return max(1, overlapNeed(small, thr, strict))
}

// overlapNeed is the smallest intersection count in [0, small] that
// clears thr against a smaller side of small, small+1 when none does:
// it starts from the real-valued estimate and settles it with the float
// expression itself.
func overlapNeed(small int, thr float64, strict bool) int {
	pass := func(count int) bool { return OverlapCountClears(count, small, thr, strict) }
	need := 0
	if est := thr * float64(small); est > float64(small) {
		need = small + 1
	} else if est > 0 {
		need = int(est)
	}
	for need > 0 && pass(need-1) {
		need--
	}
	for need <= small && !pass(need) {
		need++
	}
	return need
}

// OverlapExceeds reports whether the overlap coefficient of two sorted
// id slices clears thr — ratio > thr when strict, ratio >= thr otherwise
// — without finishing the merge once the verdict is settled. The ratio
// follows Cache.GramOverlapRatio's convention: 0 when either side is
// empty (not OverlapSortedIDs' 1 for two empties), otherwise
// float64(|A ∩ B|) / float64(min(|A|, |B|)).
//
// The verdict equals comparing that float expression against thr
// exactly: the expression is monotone in the intersection count, so the
// comparison is settled by the smallest count that passes it, and that
// count is found with the same expression. The merge then stops as soon
// as the count is reached, or as soon as one side has skipped more
// unmatched ids than reaching it allows.
func OverlapExceeds(a, b []int32, thr float64, strict bool) bool {
	small := min(len(a), len(b))
	need := overlapNeed(small, thr, strict)
	if need == 0 {
		return true
	}
	if need > small {
		return false
	}
	// Each side may leave at most len-need ids unmatched.
	slackA, slackB := len(a)-need, len(b)-need
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			count++
			if count == need {
				return true
			}
			i++
			j++
		case a[i] < b[j]:
			if slackA == 0 {
				return false
			}
			slackA--
			i++
		default:
			if slackB == 0 {
				return false
			}
			slackB--
			j++
		}
	}
	return false
}
