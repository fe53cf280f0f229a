package index

import (
	"math/rand"
	"reflect"
	"testing"

	"wwt/internal/wtable"
)

// FuzzSearchPruningEquivalence drives the layered score-bound pruning —
// the term-level max-score skip, the block-max closures and the floor
// carried across segments — through fuzzer-chosen corpora, queries, k
// values, shard counts and segment splits, and requires bit-identical
// hits (IDs, scores within 1e-9, order) from the map-based reference
// scorer and the Searcher, both as a one-segment one-shard freeze and as
// a segments × shards split of the same corpus; DocSet, IDF and each
// query token's df and posting count (sameTermStats) of the split must
// match the reference too. The pruning boundaries (k equal to the touched-document
// count, absent terms, duplicate terms, single-doc shards and segments)
// are exactly where past regressions lived
// (TestSearcherSkipWithExactlyKTouched); the fuzzer searches that boundary
// space mechanically.
func FuzzSearchPruningEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(8), uint8(3), uint8(2), uint8(0))
	f.Add(int64(42), int64(7), uint8(40), uint8(0), uint8(3), uint8(2))
	f.Add(int64(2012), int64(99991), uint8(3), uint8(17), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed, qseed int64, n, k, shards, segs uint8) {
		docs := 2 + int(n)%60
		r := rand.New(rand.NewSource(seed))
		tables := make([]*wtable.Table, docs)
		for i := range tables {
			tables[i] = randDocTable(r, i)
		}
		ix, err := Build(tables)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(ix)
		split := &Searcher{}
		for _, chunk := range splitTables(tables, 1+int(segs)%4, seed) {
			cix, err := Build(chunk)
			if err != nil {
				t.Fatal(err)
			}
			split.add(freezeSegment(cix, 1+int(shards)%4))
		}

		qr := rand.New(rand.NewSource(qseed))
		query := randQuery(qr)
		topK := int(k) % (docs + 2) // covers 0 (unbounded), 1, and > docs

		want := ix.Search(query, topK)
		sameHits(t, want, s.Search(query, topK), "frozen searcher")
		sameHits(t, want, split.Search(query, topK), "segments × shards")

		if want, got := ix.DocSet(query, FieldHeader, FieldContent), split.DocSet(query, FieldHeader, FieldContent); len(want)+len(got) > 0 && !reflect.DeepEqual(want, got) {
			t.Fatalf("DocSet(%v) = %v, want %v", query, got, want)
		}
		for _, tok := range query {
			sameTermStats(t, ix, split, tok, "segments × shards")
			if want, got := ix.IDF(tok), split.IDF(tok); want != got {
				t.Fatalf("IDF(%q) = %v, want %v", tok, got, want)
			}
		}
	})
}
