// Quickstart: answer a Top-2 count query over a tiny list of noisy name
// mentions using hand-written predicates and a similarity scorer.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	topk "topkdedup"
	"topkdedup/internal/strsim"
)

func main() {
	// A toy mention log: each record is one sighting of a person, weight 1.
	d := topk.NewDataset("mentions", "name")
	for _, name := range []string{
		"Sunita Sarawagi", "S. Sarawagi", "Sarawagi Sunita", "Sunita Sarawagi",
		"Vinay Deshpande", "V. Deshpande", "Vinay Deshpande",
		"Sourabh Kasliwal", "S Kasliwal",
		"Alon Halevy", "A. Halevy",
		"Divesh Srivastava",
	} {
		d.Append(1, "", name)
	}

	// Predicates are written as a per-record signature plus a match on
	// two signatures (topk.PredicateOf): the engine computes each
	// record's signature once per phase and then only runs the match.
	//
	// Sufficient predicate: identical initials and token sets
	// (order-insensitive exact match) are surely the same person here.
	type nameSig struct{ initials, tokens string }
	sufficient := topk.PredicateOf("exact-name",
		func(r *topk.Record) nameSig {
			return nameSig{strsim.SortedInitials(r.Field("name")), tokenSetKey(r.Field("name"))}
		},
		func(a, b nameSig) bool { return a == b },
		func(r *topk.Record) []string {
			return []string{strsim.SortedInitials(r.Field("name"))}
		})
	// Necessary predicate: duplicates must share a last name token.
	necessary := topk.PredicateOf("shared-surname",
		lastName,
		func(a, b string) bool { return a != "" && a == b },
		func(r *topk.Record) []string { return []string{lastName(r)} })
	// Final scorer: JaroWinkler similarity of the names, shifted so that
	// ~0.8 is the duplicate decision line.
	scorer := topk.PairScorerFunc(func(a, b *topk.Record) float64 {
		return 5 * (strsim.JaroWinkler(a.Field("name"), b.Field("name")) - 0.8)
	})

	eng := topk.New(d, []topk.Level{{Sufficient: sufficient, Necessary: necessary}}, scorer, topk.Config{})
	res, err := eng.TopK(2, 2) // two best answers to the Top-2 query
	if err != nil {
		log.Fatal(err)
	}
	for ai, ans := range res.Answers {
		fmt.Printf("answer %d (score %.2f):\n", ai+1, ans.Score)
		for gi, g := range ans.Groups {
			fmt.Printf("  #%d %-20s mentions=%d\n", gi+1, d.Recs[g.Rep].Field("name"), len(g.Records))
		}
	}
	fmt.Printf("records pruned before expensive scoring: %d -> %d survivors\n",
		d.Len(), res.Survivors)
}

// tokenSetKey is the name's distinct tokens, sorted and joined: equal
// keys mean equal token sets.
func tokenSetKey(name string) string {
	toks := strsim.Tokenize(name)
	sort.Strings(toks)
	uniq := toks[:0]
	for _, t := range toks {
		if n := len(uniq); n == 0 || uniq[n-1] != t {
			uniq = append(uniq, t)
		}
	}
	return strings.Join(uniq, " ")
}

func lastName(r *topk.Record) string {
	toks := strsim.Tokenize(r.Field("name"))
	if len(toks) == 0 {
		return ""
	}
	return toks[len(toks)-1]
}
