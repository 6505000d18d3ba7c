package strsim

import (
	"slices"
	"sort"

	"topkdedup/internal/intern"
)

// Cache memoises per-string derived structures (token sets, 3-gram id
// sets, initials, IDF minima) keyed by the raw field value. Field values
// repeat heavily across records and every predicate evaluation needs the
// same derived sets, so memoisation turns the per-record cost of a
// predicate signature (see predicate.Of) into a handful of map probes.
// Each derived structure is one Memo.
//
// Concurrency semantics are fixed at construction:
//
//   - NewCache returns an unsynchronised cache: its memos take no lock
//     (only minting a gram or token id does), NOT safe for concurrent
//     use. Use it for strictly serial code.
//   - NewSharedCache returns a sharded concurrent cache, safe for use
//     from many goroutines at once — this is what the predicate domains
//     use so that the pipeline's parallel phases can bind and evaluate
//     predicates from worker pools (see Memo for the sharding).
//
// The maps and slices returned by Cache methods are shared memoised
// values: callers must treat them as read-only.
type Cache struct {
	shared bool
	corpus *Corpus

	tokens   *Memo[map[string]struct{}]
	initials *Memo[string]
	letters  *Memo[uint32]
	minIDF   *Memo[float64]
	gramIDs  *Memo[gramSet]
	tokIDs   *Memo[[]int32]

	// Interned gram/token representation: every distinct gram (and,
	// separately, token) gets an integer id; per-string gram and token
	// sets are cached as sorted id slices, so overlap predicates
	// intersect by merge instead of map probing. The id tables are
	// global to the cache and lock on their own.
	gramTab, tokTab *intern.Table
}

// gramSet is one string's 3-gram set as interned ids, memoised in two
// orders: ascending by id (the merge input of the overlap predicates)
// and in the grams' lexicographic order (blocking keys: SortedGrams'
// order).
type gramSet struct {
	ids  []int32
	keys []uint32
}

// NewCache returns an empty unsynchronised cache. corpus may be nil when
// IDF-based lookups are not needed. A Cache from NewCache is NOT safe
// for concurrent use; give each goroutine its own, or build a
// NewSharedCache.
func NewCache(corpus *Corpus) *Cache { return newCache(false, corpus) }

// NewSharedCache returns an empty concurrency-safe cache, sharded so
// that goroutines evaluating predicates in parallel contend only on
// cold-miss writes to the same shard. corpus may be nil.
func NewSharedCache(corpus *Corpus) *Cache { return newCache(true, corpus) }

func newCache(shared bool, corpus *Corpus) *Cache {
	c := &Cache{shared: shared, corpus: corpus, gramTab: intern.New(), tokTab: intern.New()}
	c.tokens = newMemo(shared, TokenSet)
	c.initials = newMemo(shared, SortedInitials)
	c.letters = newMemo(shared, initialLetters)
	c.minIDF = newMemo(shared, func(s string) float64 {
		if corpus == nil {
			return 0
		}
		return corpus.MinIDF(s)
	})
	c.gramIDs = newMemo(shared, func(s string) gramSet {
		grams := TriGrams(s)
		text := make([]string, 0, len(grams))
		for g := range grams {
			text = append(text, g)
		}
		sort.Strings(text)
		keys := c.gramTab.InternAll(make([]uint32, 0, len(text)), text)
		ids := make([]int32, len(keys))
		for i, id := range keys {
			ids[i] = int32(id)
		}
		slices.Sort(ids)
		return gramSet{ids: ids, keys: keys}
	})
	c.tokIDs = newMemo(shared, func(s string) []int32 { return c.InternTokens(Tokenize(s)) })
	return c
}

// Shared reports whether the cache is safe for concurrent use.
func (c *Cache) Shared() bool { return c.shared }

// initialLetters is the uncached form of Cache.InitialLetters.
func initialLetters(s string) uint32 {
	var mask uint32
	for _, t := range Tokenize(s) {
		if ch := t[0]; ch >= 'a' && ch <= 'z' {
			mask |= 1 << (ch - 'a')
		}
	}
	return mask
}

// TokenSet returns the memoised token set of s.
func (c *Cache) TokenSet(s string) map[string]struct{} { return c.tokens.Get(s) }

// SortedInitials returns the memoised sorted initials of s.
func (c *Cache) SortedInitials(s string) string { return c.initials.Get(s) }

// InitialsEqual compares memoised sorted initials.
func (c *Cache) InitialsEqual(a, b string) bool {
	return c.SortedInitials(a) == c.SortedInitials(b)
}

// InitialLetters returns a bitmask of the a-z initial letters of the
// tokens of s (bit 0 = 'a'). Non-letter initials are ignored.
func (c *Cache) InitialLetters(s string) uint32 { return c.letters.Get(s) }

// InitialsMatch reports whether the two strings share at least one token
// initial, via the memoised letter bitmasks.
func (c *Cache) InitialsMatch(a, b string) bool {
	return c.InitialLetters(a)&c.InitialLetters(b) != 0
}

// MinIDF returns the memoised minimum token IDF of s (0 without a corpus
// or for token-less strings).
func (c *Cache) MinIDF(s string) float64 { return c.minIDF.Get(s) }

// GramIDs returns the string's 3-gram set as a sorted slice of interned
// gram ids (memoised). Id values depend on interning order and are only
// meaningful within one Cache; intersection sizes are order-independent.
func (c *Cache) GramIDs(s string) []int32 { return c.gramIDs.Get(s).ids }

// TokenIDs returns the string's distinct-token set as a sorted slice of
// interned token ids (memoised), mirroring GramIDs for word tokens. Id
// values depend on interning order and are only meaningful within one
// Cache; intersection sizes are order-independent.
func (c *Cache) TokenIDs(s string) []int32 { return c.tokIDs.Get(s) }

// InternTokens returns the given tokens' distinct set as a sorted slice
// of ids from the table TokenIDs uses, for callers that filter or
// combine tokens before interning (the address domain's non-stop word
// sets). Not memoised: wrap it in a Memo keyed by the source string.
func (c *Cache) InternTokens(toks []string) []int32 {
	ids := make([]int32, len(toks))
	for i, t := range toks {
		ids[i] = int32(c.tokTab.Intern(t))
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// GramKeyIDs returns the ids of SortedGrams(s), in that order
// (memoised, shared and read-only): the same gram set as GramIDs, as one
// blocking key id per gram. Two strings' lists hold the same id exactly
// where they hold the same gram, so an index build can read them in
// place of the gram text (predicate.P.WithKeyIDs).
func (c *Cache) GramKeyIDs(s string) []uint32 { return c.gramIDs.Get(s).keys }

// SortedGrams returns the string's 3-gram set as a lexicographically
// sorted slice, read back from the memoised GramKeyIDs through the gram
// table: a new slice per call, the caller's to keep or overwrite. Blocking-key builders range it instead
// of the gram map, so their key order — and everything downstream that
// depends on it, like interned id assignment — is deterministic run to
// run.
func (c *Cache) SortedGrams(s string) []string {
	keys := c.GramKeyIDs(s)
	return c.gramTab.AppendKeys(make([]string, 0, len(keys)), keys)
}

// GramOverlapRatio is GramOverlapRatio over memoised 3-gram sets, using
// the interned sorted-id representation (merge intersection). Note the
// 0-for-two-empties convention of the string form, not Overlap's 1;
// OverlapExceeds is its thresholded form, which the bound predicate
// evaluators call on precomputed id slices without coming through here.
func (c *Cache) GramOverlapRatio(a, b string) float64 {
	ga, gb := c.GramIDs(a), c.GramIDs(b)
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	return OverlapSortedIDs(ga, gb)
}

// JaccardGrams is Jaccard similarity over memoised 3-gram sets, via the
// sorted-id merge (counts are integers, so the value is bit-identical
// to the map-based Jaccard).
func (c *Cache) JaccardGrams(a, b string) float64 {
	return JaccardSortedIDs(c.GramIDs(a), c.GramIDs(b))
}

// JaccardTokens is Jaccard similarity over memoised token sets, via the
// sorted-id merge.
func (c *Cache) JaccardTokens(a, b string) float64 {
	return JaccardSortedIDs(c.TokenIDs(a), c.TokenIDs(b))
}

// CommonTokenCount counts shared tokens via the memoised sorted id
// slices.
func (c *Cache) CommonTokenCount(a, b string) int {
	return IntersectSortedIDs(c.TokenIDs(a), c.TokenIDs(b))
}
