// Newsfeed: the paper's streaming motivation — "tracking the most
// frequently mentioned organization in an online feed of news articles".
// Batch deduplication is pointless on an evolving feed; instead the
// engine re-answers the TopK query over the accumulated mentions after
// every batch, deduping on the fly only what the answer needs.
//
// Run with: go run ./examples/newsfeed [-batches 6] [-batch 2500] [-k 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	topk "topkdedup"
	"topkdedup/internal/strsim"
)

// Organisation entities with canonical names; the feed renders them with
// abbreviations, dropped suffixes, and typos.
var orgs = []string{
	"acme widget corporation", "globex industries limited",
	"initech software systems", "umbrella pharma holdings",
	"stark aerospace technologies", "wayne heavy engineering",
	"tyrell robotics corporation", "wonka confectionery works",
	"cyberdyne neural systems", "oscorp materials group",
	"hooli cloud platforms", "pied piper compression labs",
	"vandelay import export", "prestige telecom worldwide",
	"soylent nutrition corporation", "duff brewing company",
	"sirius cybernetics corporation", "buy n large retail",
	"gringotts financial services", "monarch atomic research",
}

var suffixes = map[string]bool{
	"corporation": true, "limited": true, "ltd": true, "inc": true,
	"holdings": true, "group": true, "company": true, "systems": true,
	"worldwide": true, "corp": true,
}

func mention(r *rand.Rand, canonical string) string {
	words := strings.Fields(canonical)
	out := make([]string, 0, len(words))
	for i, w := range words {
		switch {
		case suffixes[w] && r.Float64() < 0.5:
			if r.Float64() < 0.5 {
				continue // suffix dropped entirely
			}
			switch w {
			case "corporation":
				w = "corp"
			case "limited":
				w = "ltd"
			case "company":
				w = "co"
			}
		case i > 0 && r.Float64() < 0.12:
			continue // mid word dropped
		}
		out = append(out, w)
	}
	s := strings.Join(out, " ")
	if r.Float64() < 0.08 && len(s) > 4 {
		b := []byte(s)
		p := 1 + r.Intn(len(b)-2)
		b[p] = byte('a' + r.Intn(26))
		s = string(b)
	}
	return s
}

func main() {
	batches := flag.Int("batches", 6, "number of feed batches")
	batchSize := flag.Int("batch", 2500, "mentions per batch")
	k := flag.Int("k", 5, "K: organisations to track")
	flag.Parse()

	r := rand.New(rand.NewSource(42))
	// Zipf-ish popularity: org i is mentioned with weight ~ 1/(i+1).
	cum := make([]float64, len(orgs))
	total := 0.0
	for i := range orgs {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	draw := func() int {
		x := r.Float64() * total
		for i, c := range cum {
			if x <= c {
				return i
			}
		}
		return len(orgs) - 1
	}

	levels, scorer := orgDomain()
	st, err := topk.NewStream("newsfeed", []string{"org"}, levels)
	if err != nil {
		log.Fatal(err)
	}
	for b := 1; b <= *batches; b++ {
		for i := 0; i < *batchSize; i++ {
			org := draw()
			st.Add(1, fmt.Sprintf("ORG%02d", org), mention(r, orgs[org]))
		}
		// The sufficient-predicate collapse was maintained per insertion;
		// the query pays only the K-dependent phases.
		res, err := st.TopK(*k)
		if err != nil {
			log.Fatal(err)
		}
		last := res.Stats[len(res.Stats)-1]
		fmt.Printf("after batch %d (%d mentions, %d incremental S-evals, %d candidate groups):\n",
			b, st.Len(), st.Evals(), last.Survivors)
		top := res.Groups
		if len(top) > *k {
			top = top[:*k]
		}
		for gi, g := range top {
			fmt.Printf("  #%d %-38s mentions=%d\n",
				gi+1, st.Dataset().Recs[g.Rep].Field("org"), len(g.Members))
		}
	}

	// After the final batch, resolve the residual ambiguity among the
	// surviving groups with the full engine (scored R-best answers).
	eng := topk.New(st.Dataset(), levels, scorer, topk.Config{})
	res, err := eng.TopK(*k, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final resolved answer:")
	for gi, g := range res.Answers[0].Groups {
		fmt.Printf("  #%d %-38s mentions=%d\n",
			gi+1, st.Dataset().Recs[g.Rep].Field("org"), len(g.Records))
	}
}

// orgDomain builds the predicate schedule and scorer for org mentions.
func orgDomain() ([]topk.Level, topk.PairScorer) {
	cache := strsim.NewSharedCache(nil)
	name := func(rec *topk.Record) string { return rec.Field("org") }

	s := topk.Predicate{
		Name: "exact",
		Eval: func(a, b *topk.Record) bool { return name(a) == name(b) && name(a) != "" },
		Keys: func(rec *topk.Record) []string { return []string{"s:" + name(rec)} },
	}
	n := topk.Predicate{
		Name: "gram-overlap",
		Eval: func(a, b *topk.Record) bool {
			return cache.GramOverlapRatio(name(a), name(b)) > 0.35
		},
		Keys: func(rec *topk.Record) []string {
			grams := cache.SortedGrams(name(rec))
			keys := make([]string, 0, len(grams))
			for _, g := range grams {
				keys = append(keys, "n:"+g)
			}
			return keys
		},
	}
	scorer := topk.PairScorerFunc(func(a, b *topk.Record) float64 {
		sim := 0.6*cache.JaccardGrams(name(a), name(b)) +
			0.4*strsim.WordOverlapFraction(name(a), name(b))
		return 8 * (sim - 0.45)
	})
	return []topk.Level{{Sufficient: s, Necessary: n}}, scorer
}
