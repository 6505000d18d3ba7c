// Package strsim provides the string-similarity primitives used by the
// duplicate-detection predicates and classifiers: tokenisation, q-grams,
// set-overlap measures (Jaccard, overlap, Dice), edit-based measures
// (Levenshtein, Jaro, Jaro-Winkler), corpus IDF statistics with TF-IDF
// cosine similarity, and the custom author/co-author similarity functions
// described in Sarawagi et al. (EDBT 2009), section 6.1.
//
// All similarity functions return values in [0, 1] with 1 meaning
// identical, and are symmetric in their two string arguments.
package strsim

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lower-cased word tokens. A token is a maximal run
// of letters or digits; everything else is a separator. The result is
// allocated fresh on every call; the pooled TokenScratch path reuses
// buffers instead.
func Tokenize(s string) []string {
	return appendTokens(nil, s, nil)
}

// appendTokens is the one tokeniser both the allocating and the pooled
// paths share: identical token boundaries and lower-casing by
// construction. lowered, when non-nil, memoises mixed-case ASCII token
// lower-casing (raw token -> lowered form) so steady-state calls on
// repeating vocabulary allocate nothing.
func appendTokens(dst []string, s string, lowered map[string]string) []string {
	// ASCII fast path: byte-wise scan, tokens sliced from s. Any byte >=
	// 0x80 falls back to the rune scan below so multi-byte letters keep
	// the exact unicode.IsLetter/ToLower semantics.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		for i := 0; i < len(s); {
			if !isASCIIAlnum(s[i]) {
				i++
				continue
			}
			start := i
			hasUpper := false
			for i < len(s) && isASCIIAlnum(s[i]) {
				if s[i] >= 'A' && s[i] <= 'Z' {
					hasUpper = true
				}
				i++
			}
			tok := s[start:i]
			if hasUpper {
				if lowered != nil {
					low, ok := lowered[tok]
					if !ok {
						low = strings.ToLower(tok)
						// Clone the key: tok aliases s, and the memo must
						// not pin callers' strings in the pool.
						lowered[strings.Clone(tok)] = low
					}
					tok = low
				} else {
					tok = strings.ToLower(tok)
				}
			}
			dst = append(dst, tok)
		}
		return dst
	}
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			dst = append(dst, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return dst
}

func isASCIIAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// TokenSet returns the set of distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokenize(s) {
		set[t] = struct{}{}
	}
	return set
}

// Initials returns the sorted-order first letters of each token of s, in
// token order (not sorted): e.g. "Sunita Sarawagi" -> "ss".
func Initials(s string) string {
	var b strings.Builder
	for _, t := range Tokenize(s) {
		b.WriteByte(t[0])
	}
	return b.String()
}

// SortedInitials returns the multiset of first letters of the tokens of s
// in sorted order, so that "J. Smith" and "Smith, J." compare equal.
func SortedInitials(s string) string {
	toks := Tokenize(s)
	letters := make([]byte, 0, len(toks))
	for _, t := range toks {
		letters = append(letters, t[0])
	}
	// Insertion sort: token counts are tiny (names have <10 tokens).
	for i := 1; i < len(letters); i++ {
		for j := i; j > 0 && letters[j-1] > letters[j]; j-- {
			letters[j-1], letters[j] = letters[j], letters[j-1]
		}
	}
	return string(letters)
}

// InitialsMatch reports whether the two strings have at least one common
// initial letter among their tokens.
func InitialsMatch(a, b string) bool {
	var seen [26]bool
	for _, t := range Tokenize(a) {
		if c := t[0]; c >= 'a' && c <= 'z' {
			seen[c-'a'] = true
		}
	}
	for _, t := range Tokenize(b) {
		if c := t[0]; c >= 'a' && c <= 'z' && seen[c-'a'] {
			return true
		}
	}
	return false
}

// InitialsEqual reports whether the sorted initials of the two strings are
// exactly equal (the paper's "initials match exactly" condition).
func InitialsEqual(a, b string) bool {
	return SortedInitials(a) == SortedInitials(b)
}

// StopWords is the kind of hand-compiled list the paper uses for
// addresses ("street", "house", ...). A StopWords value is an immutable
// membership set.
type StopWords map[string]struct{}

// NewStopWords builds a stop-word set from the given words (lower-cased).
func NewStopWords(words ...string) StopWords {
	sw := make(StopWords, len(words))
	for _, w := range words {
		sw[strings.ToLower(w)] = struct{}{}
	}
	return sw
}

// Contains reports membership of the lower-cased word. Tokens reaching
// it from the tokeniser are already lower-cased, so the fast path is a
// direct probe; only words that actually differ from their lower-cased
// form pay the ToLower allocation.
func (sw StopWords) Contains(word string) bool {
	if _, ok := sw[word]; ok {
		return true
	}
	lower := strings.ToLower(word)
	if lower == word {
		return false
	}
	_, ok := sw[lower]
	return ok
}

// Filter returns the tokens of s that are not stop words.
func (sw StopWords) Filter(s string) []string {
	return sw.FilterTokens(Tokenize(s))
}

// FilterTokens removes stop words from an already-tokenised slice in
// place and returns the shortened slice. Tokens must be lower-cased (as
// the tokeniser emits them). The allocation-free companion of Filter for
// callers holding pooled scratch tokens.
func (sw StopWords) FilterTokens(toks []string) []string {
	out := toks[:0]
	for _, t := range toks {
		if _, ok := sw[t]; !ok {
			out = append(out, t)
		}
	}
	return out
}

// AddressStopWords is a default stop-word list for postal addresses,
// mirroring the paper's hand-compiled list of words commonly seen in
// addresses.
var AddressStopWords = NewStopWords(
	"street", "st", "road", "rd", "lane", "ln", "house", "flat", "apt",
	"apartment", "block", "building", "society", "nagar", "colony", "near",
	"opposite", "opp", "behind", "no", "number", "floor", "plot", "sector",
	"phase", "main", "cross", "area", "the",
)
