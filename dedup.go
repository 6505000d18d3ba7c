package topk

import (
	"context"
	"sort"

	"topkdedup/internal/core"
	"topkdedup/internal/obs"
	"topkdedup/internal/segment"
)

// DedupResult is the output of Engine.Dedup: a full partition of the
// dataset into entity groups.
type DedupResult struct {
	// Groups are the entity groups in decreasing weight.
	Groups []AnswerGroup
	// Score is the correlation-clustering score of the grouping relative
	// to leaving every sure-duplicate component separate (higher is
	// better; 0 means the scorer endorsed no merges).
	Score float64
}

// Dedup fully deduplicates the dataset: sufficient predicates collapse
// sure duplicates, the scorer resolves the rest via the embedding +
// best-segmentation search over each necessary-predicate component. This
// is the classic batch deduplication the paper's TopK machinery
// specialises; it is provided for completeness and for building
// reference answers.
//
// With a nil scorer the sure-duplicate components themselves are
// returned.
func (e *Engine) Dedup() (*DedupResult, error) {
	sp := obs.StartSpan(e.cfg.Metrics, "engine.dedup")
	defer sp.End()
	d := e.data
	groups := coreSingletons(d)
	for _, level := range e.levels {
		var evals int64
		groups, evals = core.CollapseWorkers(d, groups, level.Sufficient, e.cfg.Workers)
		obs.Count(e.cfg.Metrics, "core.collapse.evals", evals)
	}
	if e.scorer == nil {
		res := &DedupResult{}
		for _, g := range groups {
			res.Groups = append(res.Groups, AnswerGroup{Records: g.Members, Weight: g.Weight, Rep: g.Rep})
		}
		sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Weight > res.Groups[j].Weight })
		return res, nil
	}

	// No trace and no sink: Dedup's own span covers the search, which
	// reports no engine.final.* spans of its own.
	fin, err := e.newFinalSearch(context.Background(), groups, nil)
	if err != nil {
		return nil, err
	}
	defer fin.release()
	segs, best := segment.Best(fin.sc)

	res := &DedupResult{Score: best - fin.base}
	for _, clusterIdx := range segment.Clusters(segs, fin.order) {
		ag := AnswerGroup{}
		bestW := -1.0
		for _, gi := range clusterIdx {
			g := groups[gi]
			ag.Records = append(ag.Records, g.Members...)
			ag.Weight += g.Weight
			if g.Weight > bestW {
				bestW = g.Weight
				ag.Rep = g.Rep
			}
		}
		sort.Ints(ag.Records)
		res.Groups = append(res.Groups, ag)
	}
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Weight > res.Groups[j].Weight })
	return res, nil
}

// coreSingletons wraps every record in its own group (mirrors the
// unexported core helper).
func coreSingletons(d *Dataset) []Group {
	groups := make([]Group, d.Len())
	for i, r := range d.Recs {
		groups[i] = Group{Rep: r.ID, Members: []int{r.ID}, Weight: r.Weight}
	}
	return groups
}
