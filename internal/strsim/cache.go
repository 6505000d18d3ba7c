package strsim

import (
	"slices"
	"sort"
	"sync"
)

// Cache memoises per-string derived structures (token sets, 3-gram sets,
// initials, IDF minima) keyed by the raw field value. Field values repeat
// heavily across records and every predicate evaluation needs the same
// derived sets, so memoisation turns the per-record cost of a predicate
// signature (see predicate.Of) into a handful of map probes. Each
// derived structure is one Memo.
//
// Concurrency semantics are fixed at construction:
//
//   - NewCache returns an unsynchronised cache: zero locking overhead,
//     NOT safe for concurrent use. Use it for strictly serial code.
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

	grams    *Memo[map[string]struct{}]
	tokens   *Memo[map[string]struct{}]
	initials *Memo[string]
	letters  *Memo[uint32]
	minIDF   *Memo[float64]
	gramIDs  *Memo[[]int32]
	tokIDs   *Memo[[]int32]
	sorted   *Memo[[]string]

	// Interned gram/token representation: every distinct gram (and,
	// separately, token) gets an integer id; per-string gram and token
	// sets are cached as sorted id slices, so overlap predicates
	// intersect by merge instead of map probing. The id tables are
	// global to the cache with their own lock in shared mode.
	internMu sync.Mutex
	gramID   map[string]int32
	tokID    map[string]int32
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
	c := &Cache{shared: shared, corpus: corpus, gramID: make(map[string]int32), tokID: make(map[string]int32)}
	c.grams = newMemo(shared, TriGrams)
	c.tokens = newMemo(shared, TokenSet)
	c.initials = newMemo(shared, SortedInitials)
	c.letters = newMemo(shared, initialLetters)
	c.minIDF = newMemo(shared, func(s string) float64 {
		if corpus == nil {
			return 0
		}
		return corpus.MinIDF(s)
	})
	c.gramIDs = newMemo(shared, func(s string) []int32 {
		grams := c.TriGrams(s)
		keys := make([]string, 0, len(grams))
		for g := range grams {
			keys = append(keys, g)
		}
		return c.internSorted(c.gramID, keys)
	})
	c.tokIDs = newMemo(shared, func(s string) []int32 { return c.InternTokens(Tokenize(s)) })
	c.sorted = newMemo(shared, func(s string) []string {
		grams := c.TriGrams(s)
		out := make([]string, 0, len(grams))
		for g := range grams {
			out = append(out, g)
		}
		sort.Strings(out)
		return out
	})
	return c
}

// Shared reports whether the cache is safe for concurrent use.
func (c *Cache) Shared() bool { return c.shared }

// internSorted maps keys to their dense ids in table (minting ids for
// unseen keys) and returns the ids ascending and duplicate-free.
func (c *Cache) internSorted(table map[string]int32, keys []string) []int32 {
	ids := make([]int32, 0, len(keys))
	if c.shared {
		c.internMu.Lock()
	}
	for _, k := range keys {
		id, ok := table[k]
		if !ok {
			id = int32(len(table))
			table[k] = id
		}
		ids = append(ids, id)
	}
	if c.shared {
		c.internMu.Unlock()
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

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

// TriGrams returns the memoised 3-gram set of s.
func (c *Cache) TriGrams(s string) map[string]struct{} { return c.grams.Get(s) }

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
func (c *Cache) GramIDs(s string) []int32 { return c.gramIDs.Get(s) }

// TokenIDs returns the string's distinct-token set as a sorted slice of
// interned token ids (memoised), mirroring GramIDs for word tokens. Id
// values depend on interning order and are only meaningful within one
// Cache; intersection sizes are order-independent.
func (c *Cache) TokenIDs(s string) []int32 { return c.tokIDs.Get(s) }

// InternTokens returns the given tokens' distinct set as a sorted slice
// of ids from the table TokenIDs uses, for callers that filter or
// combine tokens before interning (the address domain's non-stop word
// sets). Not memoised: wrap it in a Memo keyed by the source string.
func (c *Cache) InternTokens(toks []string) []int32 { return c.internSorted(c.tokID, toks) }

// SortedGrams returns the string's 3-gram set as a lexicographically
// sorted slice (memoised). Blocking-key builders range it instead of the
// gram map, so their key order — and everything downstream that depends
// on it, like interned id assignment — is deterministic run to run.
func (c *Cache) SortedGrams(s string) []string { return c.sorted.Get(s) }

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
