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
// repeated rare token (pinned to shard 0). The rare token's shard bound
// dwarfs the filler shards', so a top-k probe should establish its floor
// there and prune the rest — and the filler posting lists span multiple
// 128-posting blocks whose only live candidates sit in the first block.
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

// TestShardPruningAdversarial drives the floor-seeding pre-pass through
// its boundary case: the winning documents' scores need contributions from
// the very shards the pre-pass prunes (every doc holds filler terms), so a
// pruned shard whose postings were actually dropped — rather than merely
// not prefaulted — would corrupt the scores. Asserts bit-identity against
// both oracles plus that pruning and block skipping really fired.
func TestShardPruningAdversarial(t *testing.T) {
	heavy, fills, tables := buildSkewedCorpus(t, 300, 4)
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	q := append([]string{heavy}, fills...)
	grid := searcherGrid(t, tables, 300)
	for _, k := range []int{1, 3, 10} {
		want := ix.Search(q, k)
		for _, c := range grid {
			got, st := c.s.SearchStats(q, k)
			sameHitsBitIdentical(t, want, got, fmt.Sprintf("%s k=%d", c.name, k))
			if c.k != 1 || c.n != 8 || k > 4 {
				// The corpus pins its terms to four shards of an 8-shard
				// layout, and the heavy docs all sit in the first segment.
				// With fewer heavy docs than k the pre-pass cannot establish
				// a floor either, so pruning legitimately stands down.
				// Exactness (asserted above) is all that is required here.
				continue
			}
			if st.ShardsPruned == 0 {
				t.Fatalf("%s k=%d: no shard pruned on the skewed corpus (%+v)", c.name, k, st)
			}
			if st.ShardsProbed+st.ShardsPruned != 4 {
				t.Fatalf("%s k=%d: probed %d + pruned %d != 4 active shards", c.name, k, st.ShardsProbed, st.ShardsPruned)
			}
			if st.BlocksSkipped == 0 {
				t.Fatalf("%s k=%d: no block skipped over multi-block filler lists (%+v)", c.name, k, st)
			}
			if st.Scanned > st.Postings {
				// Scanned includes the pre-pass rescan, but it must stay
				// bounded: each posting is scanned at most twice.
				if st.Scanned > 2*st.Postings {
					t.Fatalf("%s k=%d: scanned %d over 2x postings %d", c.name, k, st.Scanned, st.Postings)
				}
			}
			pruned := uint64(0)
			for _, n := range c.s.ShardPruneCounts() {
				pruned += n
			}
			if pruned == 0 {
				t.Fatalf("%s k=%d: ShardPruneCounts all zero after a pruned probe", c.name, k)
			}
		}
	}
	// k=0 (all hits) must disable pruning but stay exact.
	want := ix.Search(q, 0)
	for _, c := range grid {
		got, st := c.s.SearchStats(q, 0)
		sameHitsBitIdentical(t, want, got, c.name+" k=0")
		if st.ShardsPruned != 0 {
			t.Fatalf("%s k=0: pruned %d shards on an unbounded probe", c.name, st.ShardsPruned)
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
	if st.ShardsPruned != 0 || st.ShardsProbed != 1 {
		t.Fatalf("single-shard probe reports shard counters: %+v", st)
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
