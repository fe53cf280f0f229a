package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wwt/internal/wtable"
)

// buildRandCorpus returns an index plus its tables over the shared random
// table generator.
func buildRandCorpus(t testing.TB, seed int64, n int) (*Index, []*wtable.Table) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tables := make([]*wtable.Table, n)
	for i := range tables {
		tables[i] = randDocTable(r, i)
	}
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	return ix, tables
}

func randQuery(r *rand.Rand) []string {
	q := make([]string, 1+r.Intn(6))
	for i := range q {
		q[i] = propWords[r.Intn(len(propWords))]
	}
	if r.Intn(3) == 0 {
		q = append(q, "unknownword") // absent from every table
	}
	if r.Intn(3) == 0 && len(q) > 1 {
		q = append(q, q[0]) // duplicate token
	}
	return q
}

func sameHits(t testing.TB, want, got []Hit, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: hit count %d != %d (want %v, got %v)", ctx, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: hit %d ID %q != %q", ctx, i, got[i].ID, want[i].ID)
		}
		if want[i].Doc != got[i].Doc {
			t.Fatalf("%s: hit %d (%q) doc %d != %d", ctx, i, got[i].ID, got[i].Doc, want[i].Doc)
		}
		if math.Abs(want[i].Score-got[i].Score) > 1e-9 {
			t.Fatalf("%s: hit %d score %v != %v", ctx, i, got[i].Score, want[i].Score)
		}
	}
}

// sameHitsBitIdentical is the strict form of sameHits: IDs, global doc
// numbers, order AND exact float64 score bits must match — every construction of the Searcher
// accumulates in the same operation order, so == (not a tolerance) is the
// contract.
func sameHitsBitIdentical(t testing.TB, want, got []Hit, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: hit count %d != %d (want %v, got %v)", ctx, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: hit %d ID %q != %q", ctx, i, got[i].ID, want[i].ID)
		}
		if want[i].Doc != got[i].Doc {
			t.Fatalf("%s: hit %d (%q) doc %d != %d", ctx, i, got[i].ID, got[i].Doc, want[i].Doc)
		}
		if want[i].Score != got[i].Score {
			t.Fatalf("%s: hit %d score %v != %v (bit-identity violated)", ctx, i, got[i].Score, want[i].Score)
		}
	}
}

// splitTables partitions tables into nSeg contiguous non-empty chunks with
// deterministically uneven sizes — segment boundaries land mid-posting-list
// so the cross-segment stat union is actually exercised.
func splitTables(tables []*wtable.Table, nSeg int, seed int64) [][]*wtable.Table {
	if nSeg > len(tables) {
		nSeg = len(tables)
	}
	r := rand.New(rand.NewSource(seed))
	cuts := map[int]bool{0: true}
	for len(cuts) < nSeg {
		cuts[r.Intn(len(tables))] = true
	}
	var chunks [][]*wtable.Table
	start := -1
	for i := 0; i <= len(tables); i++ {
		if i == len(tables) || cuts[i] {
			if start >= 0 {
				chunks = append(chunks, tables[start:i])
			}
			start = i
		}
	}
	return chunks
}

// gridDims are the segment counts K and shard counts N every equivalence
// test drives the one Searcher at.
var gridDims = []int{1, 2, 3, 8}

// gridCase is one construction of the Searcher over a corpus: k segments ×
// n shards, built along one path — "memory" (chunks frozen at n shards
// and concatenated on the heap), "mmap" / "nommap" (those frozen segments
// written as flat files, mapped or read whole).
type gridCase struct {
	name string
	k, n int
	path string
	s    *Searcher
}

// gridOf builds the chunks as one segment each at every shard count in ns
// and along every construction path, with cleanup registered on t.
func gridOf(t testing.TB, chunks [][]*wtable.Table, ns []int) []gridCase {
	t.Helper()
	ixs := make([]*Index, len(chunks))
	for i, chunk := range chunks {
		ix, err := Build(chunk)
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	var out []gridCase
	add := func(n int, path string, s *Searcher) {
		out = append(out, gridCase{fmt.Sprintf("K=%d,N=%d/%s", len(chunks), n, path), len(chunks), n, path, s})
	}
	for _, n := range ns {
		mem := &Searcher{}
		dirs := make([]string, len(ixs))
		for i, ix := range ixs {
			seg := freezeSegment(ix, n)
			mem.add(seg)
			dirs[i] = t.TempDir()
			if err := writeSegment(dirs[i], seg); err != nil {
				t.Fatal(err)
			}
		}
		add(n, "memory", mem)
		mm, err := openSharded(false, dirs...)
		if err != nil {
			t.Fatal(err)
		}
		if !mm.Mmapped() {
			t.Fatalf("openSharded did not map the files")
		}
		rd, err := openSharded(true, dirs...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mm.Close(); rd.Close() })
		add(n, "mmap", mm)
		add(n, "nommap", rd)
	}
	return out
}

// searcherGrid is gridOf over the full K × N grid: tables split into K
// uneven segments for every K in gridDims.
func searcherGrid(t testing.TB, tables []*wtable.Table, seed int64) []gridCase {
	t.Helper()
	var out []gridCase
	for _, k := range gridDims {
		out = append(out, gridOf(t, splitTables(tables, k, seed+int64(k)), gridDims)...)
	}
	return out
}

// TestSearcherEquivalence: every construction of the Searcher must return
// the exact hit sets, order and scores (within 1e-9) of the map-based
// reference scorer, for every k including the unbounded and over-bounded
// cases.
func TestSearcherEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2012, 99991} {
		ix, tables := buildRandCorpus(t, seed, 2+rand.New(rand.NewSource(seed)).Intn(60))
		grid := searcherGrid(t, tables, seed)
		r := rand.New(rand.NewSource(seed + 1))
		for qi := 0; qi < 50; qi++ {
			q := randQuery(r)
			for _, k := range []int{0, 1, 2, 3, 5, 17, 1000} {
				want := ix.Search(q, k)
				for _, c := range grid {
					sameHits(t, want, c.s.Search(q, k), c.name)
				}
			}
		}
	}
}

// TestShardedSearcherEquivalence: at every shard count, every construction
// path must return hits bit-identical (IDs, scores, order) to the
// one-segment one-shard freeze across random queries and k values.
func TestShardedSearcherEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 42, 2012} {
		ix, tables := buildRandCorpus(t, seed, 2+rand.New(rand.NewSource(seed)).Intn(60))
		s := NewSearcher(ix)
		grid := searcherGrid(t, tables, seed)
		for _, c := range grid {
			if c.s.Shards() != c.k*c.n {
				t.Fatalf("%s: Shards() = %d, want %d", c.name, c.s.Shards(), c.k*c.n)
			}
			if c.s.Len() != ix.Len() {
				t.Fatalf("%s: Len() = %d, want %d", c.name, c.s.Len(), ix.Len())
			}
		}
		r := rand.New(rand.NewSource(seed + 8))
		for qi := 0; qi < 25; qi++ {
			q := randQuery(r)
			for _, k := range []int{0, 1, 3, 17, 1000} {
				want := s.Search(q, k)
				for _, c := range grid {
					sameHitsBitIdentical(t, want, c.s.Search(q, k), c.name)
				}
			}
		}
	}
}

// TestMultiSearcherEquivalence: top-k over K segments must be bit-identical
// (IDs, float64 score bits, order) to a single index rebuilt over the whole
// corpus, for every segment count, shard count and open path. The
// per-term stats a probe carries (corpus-global df/idf/bound) are what
// makes a partitioned corpus score exactly like an unpartitioned one.
func TestMultiSearcherEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 77} {
		ix, tables := buildRandCorpus(t, seed, 24+rand.New(rand.NewSource(seed)).Intn(40))
		s := NewSearcher(ix)
		grid := searcherGrid(t, tables, seed)
		for _, c := range grid {
			if c.s.Len() != ix.Len() {
				t.Fatalf("%s: Len() = %d, want %d", c.name, c.s.Len(), ix.Len())
			}
			if c.s.Segments() != c.k {
				t.Fatalf("%s: Segments() = %d, want %d", c.name, c.s.Segments(), c.k)
			}
		}
		r := rand.New(rand.NewSource(seed * 16))
		for qi := 0; qi < 20; qi++ {
			q := randQuery(r)
			for _, k := range []int{0, 1, 3, 17, 1000} {
				want := s.Search(q, k)
				for _, c := range grid {
					sameHitsBitIdentical(t, want, c.s.Search(q, k), c.name)
				}
			}
		}
	}
}

// skipCorpus is the exactly-k-skip regression corpus. "aaa" touches exactly
// k=2 docs: t0 strongly (boosted header match) and t1 weakly. "bbb" touches
// only t2, whose score lands strictly between t0's and t1's, so the true
// top 2 is {t0, t2}.
func skipCorpus() []*wtable.Table {
	row := func(cells ...string) wtable.Row {
		r := wtable.Row{}
		for _, c := range cells {
			r.Cells = append(r.Cells, wtable.Cell{Text: c})
		}
		return r
	}
	return []*wtable.Table{
		{ID: "t0", HeaderRows: []wtable.Row{row("aaa")}, BodyRows: []wtable.Row{row("xxx")}},
		{ID: "t1", BodyRows: []wtable.Row{row("aaa")}},
		{ID: "t2", BodyRows: []wtable.Row{row("bbb")}},
	}
}

// expectSkipWinners asserts the skip corpus's top 2 is {t0, t2}.
func expectSkipWinners(t *testing.T, got []Hit, ctx string) {
	t.Helper()
	ids := map[string]bool{}
	for _, h := range got {
		ids[h.ID] = true
	}
	if !ids["t0"] || !ids["t2"] {
		t.Fatalf("%s: top-2 = %v, want t0 and t2 (t2 arrives after the skip threshold is set)", ctx, got)
	}
}

// TestSearcherSkipWithExactlyKTouched: regression for the max-score skip
// threshold. When the first term touches exactly k documents, kthLargest
// hands topKSelect a slice with k == len, which topKSelect returns
// unheapified — so [0] used to be an arbitrary (often the largest) partial
// score. The inflated threshold (t0's partial score > maxScore["bbb"])
// tripped the skip during "bbb" and t2 was dropped in favor of t1, even
// though it belongs in the final top k.
func TestSearcherSkipWithExactlyKTouched(t *testing.T) {
	tables := skipCorpus()
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := []string{"aaa", "bbb"}
	got := s.Search(q, 2)
	sameHits(t, ix.Search(q, 2), got, "exactly-k skip")
	expectSkipWinners(t, got, "frozen")
}

// TestShardedSearcherSkipWithExactlyKTouched replays the skip regression
// corpus against every shard count and construction path: a document
// arriving after the skip threshold is set must still enter the top k.
func TestShardedSearcherSkipWithExactlyKTouched(t *testing.T) {
	tables := skipCorpus()
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	q := []string{"aaa", "bbb"}
	want := NewSearcher(ix).Search(q, 2)
	for _, c := range gridOf(t, [][]*wtable.Table{tables}, gridDims) {
		got := c.s.Search(q, 2)
		sameHitsBitIdentical(t, want, got, c.name)
		expectSkipWinners(t, got, c.name)
	}
}

// TestMultiSearcherSkipWithExactlyKTouched replays the exactly-k-skip
// regression corpus across segment splits: the first term touches exactly
// k docs, and the doc arriving after the skip threshold — in a different
// segment — must still enter the top k (the cross-segment score floor is
// a bound, never a filter).
func TestMultiSearcherSkipWithExactlyKTouched(t *testing.T) {
	tables := skipCorpus()
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	q := []string{"aaa", "bbb"}
	want := NewSearcher(ix).Search(q, 2)
	for _, nSeg := range []int{1, 2, 3} {
		for _, splitSeed := range []int64{1, 9} {
			for _, c := range gridOf(t, splitTables(tables, nSeg, splitSeed), gridDims) {
				got := c.s.Search(q, 2)
				sameHitsBitIdentical(t, want, got, c.name)
				expectSkipWinners(t, got, c.name)
			}
		}
	}
}

// TestMultiSearcherPruningBoundary drives the skewed shard-pruning corpus
// through segment splits: the winning docs need contributions from
// low-bound filler terms, so a segment whose gather over-pruned would
// corrupt scores. Bit-identity against the unpartitioned oracle is the
// whole assertion.
func TestMultiSearcherPruningBoundary(t *testing.T) {
	heavy, fills, tables := buildSkewedCorpus(t, 240, 4)
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := append([]string{heavy}, fills...)
	for _, c := range searcherGrid(t, tables, 0) {
		for _, k := range []int{1, 3, 10, 1000} {
			sameHitsBitIdentical(t, s.Search(q, k), c.s.Search(q, k), c.name)
		}
	}
}

var docSetFieldSets = [][]Field{
	{FieldHeader}, {FieldContext}, {FieldContent},
	{FieldHeader, FieldContext}, {FieldHeader, FieldContext, FieldContent},
}

// sameDocs compares two doc sets, treating nil and empty alike.
func sameDocs(t *testing.T, want, got []int32, ctx string) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s = %v, want %v", ctx, got, want)
	}
}

// TestSearcherDocSetEquivalence: DocSet, over several tokens and over one,
// must match the map-based reference across field combinations, on every
// construction.
func TestSearcherDocSetEquivalence(t *testing.T) {
	ix, tables := buildRandCorpus(t, 4242, 40)
	grid := searcherGrid(t, tables, 4242)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		toks := randQuery(r)
		tok := propWords[r.Intn(len(propWords))]
		for _, fs := range docSetFieldSets {
			wantSet, wantTok := ix.DocSet(toks, fs...), ix.DocsWithToken(tok, fs...)
			for _, c := range grid {
				sameDocs(t, wantSet, c.s.DocSet(toks, fs...), fmt.Sprintf("%s: DocSet(%v, %v)", c.name, toks, fs))
				sameDocs(t, wantTok, c.s.DocSet([]string{tok}, fs...), fmt.Sprintf("%s: DocSet(%q, %v)", c.name, tok, fs))
			}
		}
	}
}

// TestShardedDocSetEquivalence: DocSet (over several tokens and over one)
// and IDF must match the one-segment one-shard freeze at every shard count
// and construction path.
func TestShardedDocSetEquivalence(t *testing.T) {
	ix, tables := buildRandCorpus(t, 4242, 40)
	s := NewSearcher(ix)
	grid := searcherGrid(t, tables, 17)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		toks := randQuery(r)
		tok := propWords[r.Intn(len(propWords))]
		for _, c := range grid {
			for _, fs := range docSetFieldSets {
				sameDocs(t, s.DocSet(toks, fs...), c.s.DocSet(toks, fs...), fmt.Sprintf("%s: DocSet(%v, %v)", c.name, toks, fs))
				one := []string{tok}
				sameDocs(t, s.DocSet(one, fs...), c.s.DocSet(one, fs...), fmt.Sprintf("%s: DocSet(%q, %v)", c.name, tok, fs))
			}
			if got, want := c.s.IDF(tok), s.IDF(tok); got != want {
				t.Fatalf("%s: IDF(%q) = %v, want %v", c.name, tok, got, want)
			}
			if got, want := c.s.IDF("unknownword"), s.IDF("unknownword"); got != want {
				t.Fatalf("%s: unknown-token IDF = %v, want %v", c.name, got, want)
			}
		}
	}
}

// TestMultiSearcherDocSets: DocSet/IDF/TermStats must match
// the unpartitioned searcher — doc numbers remap through the segment
// bases, and df sums across segments.
func TestMultiSearcherDocSets(t *testing.T) {
	ix, tables := buildRandCorpus(t, 4242, 40)
	s := NewSearcher(ix)
	grid := searcherGrid(t, tables, 2)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		toks := randQuery(r)
		tok := propWords[r.Intn(len(propWords))]
		for _, c := range grid {
			sameDocs(t, s.DocSet(toks), c.s.DocSet(toks), fmt.Sprintf("%s: DocSet(%v)", c.name, toks))
			if w, g := s.IDF(tok), c.s.IDF(tok); w != g {
				t.Fatalf("%s: IDF(%q) = %v, want %v", c.name, tok, g, w)
			}
			wdf, wpost, wok := s.TermStats(tok)
			gdf, gpost, gok := c.s.TermStats(tok)
			if wdf != gdf || wpost != gpost || wok != gok {
				t.Fatalf("%s: TermStats(%q) = (%d,%d,%v), want (%d,%d,%v)", c.name, tok, gdf, gpost, gok, wdf, wpost, wok)
			}
		}
	}
}

// TestTermStatsEquivalence: the planner's cost features (df, total posting
// entries) must read identically from the mutable Index, the
// one-segment one-shard freeze, and every construction at every segment
// and shard count; and a probe's ProbeStats.Postings must equal the
// TermStats postings summed over its unique tokens.
func TestTermStatsEquivalence(t *testing.T) {
	ix, tables := buildRandCorpus(t, 2012, 40)
	s := NewSearcher(ix)
	for _, c := range searcherGrid(t, tables, 2012) {
		sh := s.segs[0].shards[0]
		for ti := int32(0); ti < int32(sh.numTerms); ti++ {
			tok := sh.termName(ti)
			wdf, wpost, wok := ix.TermStats(tok)
			sdf, spost, sok := s.TermStats(tok)
			gdf, gpost, gok := c.s.TermStats(tok)
			if !wok || !sok || !gok {
				t.Fatalf("%s: token %q ok = (%v,%v,%v), want all true", c.name, tok, wok, sok, gok)
			}
			if wdf != sdf || wdf != gdf || wpost != spost || wpost != gpost {
				t.Fatalf("%s: token %q stats (%d,%d)/(%d,%d)/(%d,%d) disagree",
					c.name, tok, wdf, wpost, sdf, spost, gdf, gpost)
			}
			if wpost < int(wdf) {
				t.Fatalf("token %q: %d posting entries < df %d", tok, wpost, wdf)
			}
		}
		if _, _, ok := c.s.TermStats("zzz-no-such-token"); ok {
			t.Fatalf("%s: unknown token reported ok", c.name)
		}
		// A probe's Postings is the TermStats postings of its unique
		// tokens: the engine's cost feature reads it in place of a
		// TermStats call per token.
		r := rand.New(rand.NewSource(2013))
		for qi := 0; qi < 20; qi++ {
			q := randQuery(r)
			want, seen := 0, make(map[string]bool)
			for _, tok := range q {
				if !seen[tok] {
					seen[tok] = true
					_, post, _ := c.s.TermStats(tok)
					want += post
				}
			}
			for _, k := range []int{0, 1, 5, 1000} {
				if _, st := c.s.SearchStats(q, k); st.Postings != int64(want) {
					t.Fatalf("%s: query %q k %d: probe Postings %d, TermStats sum %d", c.name, q, k, st.Postings, want)
				}
			}
		}
	}
	if _, _, ok := ix.TermStats("zzz-no-such-token"); ok {
		t.Fatal("Index: unknown token reported ok")
	}
	if _, _, ok := s.TermStats("zzz-no-such-token"); ok {
		t.Fatal("Searcher: unknown token reported ok")
	}
}

// hammer serves 8 goroutines from one searcher concurrently (run under
// -race), comparing every result against want.
func hammer(t *testing.T, s *Searcher, rounds int, want func(q []string, k int) []Hit, tol float64) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				q := randQuery(r)
				want, got := want(q, 7), s.Search(q, 7)
				if len(want) != len(got) {
					t.Errorf("goroutine %d: %d hits, want %d", g, len(got), len(want))
					return
				}
				for j := range want {
					if want[j].ID != got[j].ID || math.Abs(want[j].Score-got[j].Score) > tol {
						t.Errorf("goroutine %d: hit %d mismatch", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSearcherConcurrent: one in-memory searcher must serve goroutines
// concurrently, matching the reference scorer.
func TestSearcherConcurrent(t *testing.T) {
	ix, _ := buildRandCorpus(t, 777, 50)
	hammer(t, NewSearcher(ix), 200, ix.Search, 1e-9)
}

// TestShardedSearcherConcurrent: one mmap-opened searcher over three
// segments of four shards must serve goroutines concurrently with
// bit-identical results (the prefault goroutines cross shard boundaries
// here, and the pooled accumulator is reused across segments).
func TestShardedSearcherConcurrent(t *testing.T) {
	ix, tables := buildRandCorpus(t, 777, 50)
	for _, c := range gridOf(t, splitTables(tables, 3, 777), []int{4}) {
		if c.path == "mmap" {
			hammer(t, c.s, 150, NewSearcher(ix).Search, 0)
		}
	}
}
