package index

import (
	"fmt"
	"math/rand"
	"testing"

	"wwt/internal/wtable"
)

// benchSkewedTables builds the 1500-table skewed fixture corpus behind
// the block-max benchmarks: every table carries a handful of
// zipf-picked common words (long posting lists, low idf), and each table
// also carries one of 125 rare words (12 tables per word, repeated — high
// idf, high tf). A rare+common query's top-10 is decided by the rare
// term, which is exactly the shape where block-max skipping pays: the
// common lists are long, cold and mostly hopeless.
func benchSkewedTables() []*wtable.Table {
	r := rand.New(rand.NewSource(2012))
	common := make([]string, 30)
	for i := range common {
		common[i] = fmt.Sprintf("common%02d", i)
	}
	pickCommon := func() string {
		i := int(r.ExpFloat64() * 5)
		if i >= len(common) {
			i = len(common) - 1
		}
		return common[i]
	}
	row := func(cells ...string) wtable.Row {
		w := wtable.Row{}
		for _, c := range cells {
			w.Cells = append(w.Cells, wtable.Cell{Text: c})
		}
		return w
	}
	tables := make([]*wtable.Table, benchCorpusSize)
	for i := range tables {
		tb := &wtable.Table{ID: fmt.Sprintf("t%04d", i)}
		// Rare words cluster over contiguous doc IDs (12 tables per word),
		// the way a crawl's site locality clusters related tables — so a
		// rare query term's candidates concentrate in a few blocks of each
		// common list instead of leaving one live doc per block.
		rare := fmt.Sprintf("rare%03d", i/12)
		tb.HeaderRows = []wtable.Row{row(rare)}
		for j := 0; j < 3; j++ {
			tb.BodyRows = append(tb.BodyRows, row(pickCommon(), pickCommon(), pickCommon(), pickCommon()))
		}
		tb.BodyRows = append(tb.BodyRows, row(rare, rare, rare, rare))
		tables[i] = tb
	}
	return tables
}

// benchSkewedQueries is the skewed multi-term query mix: one rare term
// plus three common ones.
func benchSkewedQueries(n int) [][]string {
	r := rand.New(rand.NewSource(7))
	qs := make([][]string, n)
	for i := range qs {
		qs[i] = []string{
			fmt.Sprintf("rare%03d", r.Intn(125)),
			fmt.Sprintf("common%02d", r.Intn(10)),
			fmt.Sprintf("common%02d", r.Intn(30)),
			fmt.Sprintf("common%02d", r.Intn(30)),
		}
	}
	return qs
}

func benchSkewedSearcher(b *testing.B) *Searcher {
	b.Helper()
	ix, err := Build(benchSkewedTables())
	if err != nil {
		b.Fatal(err)
	}
	return NewSearcher(ix)
}

// reportProbeMetrics turns cumulative probe stats into per-op and rate
// metrics on the benchmark (reported beside ns/op in the bench output).
func reportProbeMetrics(b *testing.B, st ProbeStats, ops int) {
	if ops == 0 {
		return
	}
	if st.BlocksTotal > 0 {
		b.ReportMetric(float64(st.BlocksSkipped)/float64(st.BlocksTotal)*100, "blockskip%")
	}
	if st.Postings > 0 {
		b.ReportMetric(float64(st.Scanned)/float64(st.Postings)*100, "scan%")
	}
}

// BenchmarkSearchBlockMax: skewed top-10 probes on the single-shard
// in-memory searcher (block-max skipping, no shard fan-out).
func BenchmarkSearchBlockMax(b *testing.B) {
	queries := benchSkewedQueries(64)
	s := benchSkewedSearcher(b)
	var total ProbeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := s.SearchStats(queries[i%len(queries)], 10)
		total.BlocksTotal += st.BlocksTotal
		total.BlocksSkipped += st.BlocksSkipped
		total.Postings += st.Postings
		total.Scanned += st.Scanned
	}
	b.StopTimer()
	reportProbeMetrics(b, total, b.N)
}

// BenchmarkShardedSkewed: skewed multi-term top-10 probes over the
// 1500-table fixture at 8 shards, mmap-opened (block-max skipping across
// shards).
func BenchmarkShardedSkewed(b *testing.B) {
	queries := benchSkewedQueries(64)
	dir := b.TempDir()
	if err := WriteDir(dir, benchSkewedTables(), 8); err != nil {
		b.Fatal(err)
	}
	ss, err := openSharded(false, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	ss.Search(queries[0], 10) // fault in before timing
	var total ProbeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := ss.SearchStats(queries[i%len(queries)], 10)
		total.BlocksTotal += st.BlocksTotal
		total.BlocksSkipped += st.BlocksSkipped
		total.Postings += st.Postings
		total.Scanned += st.Scanned
	}
	b.StopTimer()
	reportProbeMetrics(b, total, b.N)
}
