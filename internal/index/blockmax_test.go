package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wwt/internal/wtable"
)

// pickTok scans integer suffixes until prefix+N lands on the wanted home
// shard — a deterministic way to pin query terms to specific shards.
func pickTok(prefix string, shard, nShards int) string {
	for i := 0; ; i++ {
		tok := fmt.Sprintf("%s%d", prefix, i)
		if shardOfToken(tok, nShards) == shard {
			return tok
		}
	}
}

// buildSkewedCorpus builds the adversarial pruning corpus: nDocs tables
// that all carry three low-weight filler tokens (pinned to shards 1, 2, 3
// of an 8-shard layout), while only the first few tables carry a heavily
// repeated rare token (pinned to shard 0). The rare token's bound dwarfs
// the fillers', so a top-k probe establishes its floor on the rare list
// and closes the filler lists, which span multiple 128-posting blocks
// whose only live candidates sit in the first block.
func buildSkewedCorpus(t *testing.T, nDocs, nHeavy int) (heavy string, fills []string, tables []*wtable.Table) {
	t.Helper()
	heavy = pickTok("aaheavy", 0, 8)
	fills = []string{
		pickTok("zzfill", 1, 8),
		pickTok("zzfill", 2, 8),
		pickTok("zzfill", 3, 8),
	}
	row := func(cells ...string) wtable.Row {
		r := wtable.Row{}
		for _, c := range cells {
			r.Cells = append(r.Cells, wtable.Cell{Text: c})
		}
		return r
	}
	for i := 0; i < nDocs; i++ {
		tb := &wtable.Table{ID: fmt.Sprintf("t%03d", i)}
		tb.BodyRows = append(tb.BodyRows, row(fills[0], fills[1], fills[2]))
		if i < nHeavy {
			tb.BodyRows = append(tb.BodyRows, row(heavy, heavy, heavy, heavy))
		}
		tables = append(tables, tb)
	}
	return heavy, fills, tables
}

// TestSkewedShardsExact probes a corpus whose score bounds are skewed
// across shards: the winning documents' scores need contributions from the
// low-bound filler shards whose blocks close (every doc holds filler
// terms), so a closed block that dropped an admitted candidate's postings
// would corrupt the scores. Asserts bit-identity against the reference
// scorer over the whole K×N grid, that block skipping really fired, and
// that no posting is scanned twice.
func TestSkewedShardsExact(t *testing.T) {
	heavy, fills, tables := buildSkewedCorpus(t, 300, 4)
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	q := append([]string{heavy}, fills...)
	grid := searcherGrid(t, tables, 300)
	for _, k := range []int{1, 3, 10, 0} { // k=0 (all hits) never closes a block
		want := ix.Search(q, k)
		for _, c := range grid {
			got, st := c.s.SearchStats(q, k)
			name := fmt.Sprintf("%s k=%d", c.name, k)
			sameHitsBitIdentical(t, want, got, name)
			if st.Scanned > st.Postings {
				t.Fatalf("%s: scanned %d of %d postings", name, st.Scanned, st.Postings)
			}
			if k < 1 || k > 4 {
				// With fewer heavy docs than k no floor closes the filler
				// blocks. Exactness (asserted above) is all that is
				// required here.
				continue
			}
			if st.BlocksSkipped == 0 {
				t.Fatalf("%s: no block skipped over multi-block filler lists (%+v)", name, st)
			}
		}
	}
}

// TestSearcherSearchStats sanity-checks the single-shard counters: totals
// cover the query's postings, the skewed corpus skips blocks, and Search
// and SearchStats return identical hits.
func TestSearcherSearchStats(t *testing.T) {
	heavy, fills, tables := buildSkewedCorpus(t, 300, 4)
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := append([]string{heavy}, fills...)
	hits, st := s.SearchStats(q, 3)
	sameHitsBitIdentical(t, s.Search(q, 3), hits, "SearchStats vs Search")
	if st.Postings == 0 || st.BlocksTotal == 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	if st.BlocksSkipped == 0 {
		t.Fatalf("no block skipped on the skewed corpus: %+v", st)
	}
	if st.Scanned >= st.Postings {
		t.Fatalf("skips saved nothing: scanned %d of %d postings", st.Scanned, st.Postings)
	}
}

// TestBlockMaxEquivalenceQuick fuzzes the block-max path at tiny block
// sizes (so even small corpora span many blocks) across shard counts:
// hits must stay bit-identical to the reference scorer for random
// corpora, queries and k.
func TestBlockMaxEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		tables := make([]*wtable.Table, n)
		for i := range tables {
			tables[i] = randDocTable(r, i)
		}
		ix, err := Build(tables)
		if err != nil {
			return false
		}
		blockSize := 1 + r.Intn(5)
		q := []string{
			propWords[r.Intn(len(propWords))],
			propWords[r.Intn(len(propWords))],
			propWords[r.Intn(len(propWords))],
		}
		k := []int{1, 2, 5, 0}[r.Intn(4)]
		want := ix.Search(q, k)
		for _, shards := range []int{1, 3, 8} {
			seg := freezeSegment(ix, shards)
			for _, sh := range seg.shards {
				sh.computeBlocks(blockSize)
			}
			ss := &Searcher{}
			ss.add(seg)
			sg, _ := ss.SearchStats(q, k)
			if !hitsEqual(want, sg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// hitsEqual is sameHitsBitIdentical as a predicate (for quick.Check).
func hitsEqual(want, got []Hit) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Doc != got[i].Doc || want[i].Score != got[i].Score {
			return false
		}
	}
	return true
}
