package domains

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"topkdedup/internal/datagen"
	"topkdedup/internal/index"
	"topkdedup/internal/predicate"
	"topkdedup/internal/records"
)

// refBlock is the string-keyed index build Block replaced for the
// id-keyed predicates: every record's Keys interned into a map of the
// call's own, ids in first-seen order over recs.
func refBlock(p predicate.P, recs []*records.Record) *index.IDIndex {
	ids := make(map[string]uint32)
	keyIDs := make([][]uint32, len(recs))
	for i, r := range recs {
		for _, k := range p.Keys(r) {
			id, ok := ids[k]
			if !ok {
				id = uint32(len(ids))
				ids[k] = id
			}
			keyIDs[i] = append(keyIDs[i], id)
		}
	}
	return index.BuildID(len(recs), len(ids), keyIDs)
}

// sameIndex reports how got differs from want — key space, every item's
// key ids, every bucket — or "" when they are identical.
func sameIndex(got, want *index.IDIndex) string {
	if got.Len() != want.Len() || got.KeySpace() != want.KeySpace() {
		return fmt.Sprintf("%d items over %d keys, want %d over %d", got.Len(), got.KeySpace(), want.Len(), want.KeySpace())
	}
	for i := range want.Len() {
		g, w := got.KeyIDs()[i], want.KeyIDs()[i]
		if len(g) != 0 || len(w) != 0 {
			if !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("item %d: key ids %v, want %v", i, g, w)
			}
		}
	}
	for id := range uint32(want.KeySpace()) {
		if g, w := got.Bucket(id), want.Bucket(id); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("bucket %d: %v, want %v", id, g, w)
		}
	}
	return ""
}

// withEdgeRecords copies d and appends records a key function can trip
// on: every field empty, every field without a token, and a repeat of
// the first and of the last record (so their keys repeat across items).
func withEdgeRecords(d *records.Dataset) *records.Dataset {
	out := records.New(d.Name, d.Schema...)
	values := func(r *records.Record) []string {
		vs := make([]string, len(d.Schema))
		for i, f := range d.Schema {
			vs[i] = r.Field(f)
		}
		return vs
	}
	for _, r := range d.Recs {
		out.Append(r.Weight, r.Truth, values(r)...)
	}
	empty, blank := make([]string, len(d.Schema)), make([]string, len(d.Schema))
	for i := range blank {
		blank[i] = " - . "
	}
	out.Append(1, "", empty...)
	out.Append(1, "", blank...)
	out.Append(1, "", values(d.Recs[0])...)
	out.Append(1, "", values(d.Recs[len(d.Recs)-1])...)
	return out
}

// TestBlockIDsMatchStringKeys holds Block, for every predicate of every
// built-in domain, to the string-keyed reference build: the same key
// space, per-item key ids and buckets, on seeded data at two sizes with
// edge records appended, each domain fresh so its key ids are minted by
// the build itself.
func TestBlockIDsMatchStringKeys(t *testing.T) {
	for _, n := range []int{300, 1200} {
		for _, bc := range boundCasesAt(n) {
			d := withEdgeRecords(bc.d)
			for li, level := range bc.build() {
				for _, p := range []predicate.P{level.Sufficient, level.Necessary} {
					// Twice: the second build reads ids the first minted.
					for pass := range 2 {
						if diff := sameIndex(p.Block(d.Recs, nil), refBlock(p, d.Recs)); diff != "" {
							t.Fatalf("%s n=%d level %d %s pass %d: %s", bc.name, n, li+1, p.Name, pass, diff)
						}
					}
				}
			}
		}
	}
}

// TestBlockIDsConcurrentMint builds every predicate's index from several
// goroutines at once on a fresh domain, so the domain mints its key ids
// concurrently and in no fixed order; each build must still equal the
// serial reference (run under -race, it also checks the minting is
// synchronised).
func TestBlockIDsConcurrentMint(t *testing.T) {
	const builders = 4
	for _, bc := range boundCasesAt(600) {
		levels := bc.build()
		var ps []predicate.P
		for _, level := range levels {
			ps = append(ps, level.Sufficient, level.Necessary)
		}
		got := make([][]*index.IDIndex, builders)
		var wg sync.WaitGroup
		for g := range builders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range ps {
					// Each builder starts at a different predicate.
					p := ps[(k+g)%len(ps)]
					got[g] = append(got[g], p.Block(bc.d.Recs, nil))
				}
			}()
		}
		wg.Wait()
		for g := range builders {
			for k, ix := range got[g] {
				p := ps[(k+g)%len(ps)]
				if diff := sameIndex(ix, refBlock(p, bc.d.Recs)); diff != "" {
					t.Fatalf("%s builder %d %s: %s", bc.name, g, p.Name, diff)
				}
			}
		}
	}
}

// blockSink keeps BenchmarkBlock's builds live.
var blockSink *index.IDIndex

// BenchmarkBlock measures one index build per citation predicate over
// the 12,000-record benchmark dataset (every record, key ids warm: the
// domain has built once before the timer starts), reporting the build's
// cost per record.
func BenchmarkBlock(b *testing.B) {
	d := datagen.Citations(datagen.DefaultCitationConfig(12000))
	dom := Citations(BuildDistinctCorpus(d, datagen.FieldAuthor), CitationOptions{})
	for _, level := range dom.Levels {
		for _, p := range []predicate.P{level.Sufficient, level.Necessary} {
			b.Run(p.Name, func(b *testing.B) {
				blockSink = p.Block(d.Recs, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					blockSink = p.Block(d.Recs, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Len()), "ns/record")
			})
		}
	}
}
