package topk_test

import (
	"fmt"

	topk "topkdedup"
	"topkdedup/internal/strsim"
)

// Example demonstrates a complete Top-2 count query over noisy person
// mentions: a sufficient predicate collapses order-insensitive exact
// names, a necessary predicate requires a shared surname, and a
// JaroWinkler-based scorer resolves the residual ambiguity.
func Example() {
	d := topk.NewDataset("mentions", "name")
	for _, name := range []string{
		"grace hopper", "hopper grace", "grace hopper", "grace hopper",
		"alan turing", "a. turing", "alan turing",
		"ada lovelace",
	} {
		d.Append(1, "", name)
	}

	sufficient := topk.Predicate{
		Name: "exact-tokens",
		Eval: func(a, b *topk.Record) bool {
			return strsim.JaccardTokens(a.Field("name"), b.Field("name")) == 1
		},
		Keys: func(r *topk.Record) []string {
			return []string{strsim.SortedInitials(r.Field("name"))}
		},
	}
	necessary := topk.Predicate{
		Name: "shared-token",
		Eval: func(a, b *topk.Record) bool {
			return strsim.CommonTokenCount(a.Field("name"), b.Field("name")) >= 1
		},
		Keys: func(r *topk.Record) []string {
			var keys []string
			for t := range strsim.TokenSet(r.Field("name")) {
				keys = append(keys, t)
			}
			return keys
		},
	}
	scorer := topk.PairScorerFunc(func(a, b *topk.Record) float64 {
		return 5 * (strsim.JaroWinkler(a.Field("name"), b.Field("name")) - 0.72)
	})

	eng := topk.New(d, []topk.Level{{Sufficient: sufficient, Necessary: necessary}}, scorer, topk.Config{})
	res, err := eng.TopK(2, 1)
	if err != nil {
		panic(err)
	}
	for i, g := range res.Answers[0].Groups {
		fmt.Printf("#%d %s: %d mentions\n", i+1, d.Recs[g.Rep].Field("name"), len(g.Records))
	}
	// Output:
	// #1 grace hopper: 4 mentions
	// #2 alan turing: 3 mentions
}
