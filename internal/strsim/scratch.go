package strsim

import "sync"

// TokenScratch is reusable tokeniser state: a token slice, a token set,
// and a term-count map that are cleared — not reallocated — between
// calls, plus a persistent lower-casing memo. A scratch makes the
// tokenise/set-build path allocation-free in steady state (all-ASCII
// input over a repeating vocabulary; TestTokenScratchNoAllocs pins it at
// zero allocs/op), where the package-level TokenSet allocates a fresh
// map and strings on every call.
//
// Ownership and reset rules (see DESIGN.md "Pooled scratch buffers"):
//
//   - A scratch is single-goroutine state. Get one with GetTokenScratch,
//     use it, Release it; never share one across goroutines or hold it
//     past Release.
//   - Every returned slice/map is valid only until the next call of the
//     same method on the same scratch (the storage is reused). Callers
//     needing to keep a result must copy it out.
//   - Release returns the scratch to the pool with its buffers intact
//     (that is the point) but its per-call contents dead. The lower-
//     casing memo persists across Release by design and is capped at
//     lowerMemoCap entries.
type TokenScratch struct {
	toks    []string
	set     map[string]struct{}
	lowered map[string]string
}

// lowerMemoCap bounds the persistent lower-casing memo of a pooled
// scratch; when the vocabulary of mixed-case tokens exceeds it the memo
// is cleared and rebuilt rather than growing without bound.
const lowerMemoCap = 1 << 16

var tokenScratchPool = sync.Pool{New: func() any {
	return &TokenScratch{
		set:     make(map[string]struct{}, 16),
		lowered: make(map[string]string, 16),
	}
}}

// GetTokenScratch returns a scratch from the package pool. Pair every
// Get with a Release.
func GetTokenScratch() *TokenScratch {
	return tokenScratchPool.Get().(*TokenScratch)
}

// Release returns the scratch to the pool. The caller must not use the
// scratch, or any slice/map it returned, afterwards.
func (ts *TokenScratch) Release() {
	tokenScratchPool.Put(ts)
}

// Tokens returns the lower-cased word tokens of s in a reused slice
// (valid until the next Tokens/TokenSet call on ts).
func (ts *TokenScratch) Tokens(s string) []string {
	if len(ts.lowered) > lowerMemoCap {
		clear(ts.lowered)
	}
	ts.toks = appendTokens(ts.toks[:0], s, ts.lowered)
	return ts.toks
}

// TokenSet returns the set of distinct tokens of s in a reused map
// (valid until the next TokenSet call on ts). Identical contents to the
// package-level TokenSet.
func (ts *TokenScratch) TokenSet(s string) map[string]struct{} {
	clear(ts.set)
	for _, t := range ts.Tokens(s) {
		ts.set[t] = struct{}{}
	}
	return ts.set
}
