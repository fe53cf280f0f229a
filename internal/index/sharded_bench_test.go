package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wwt/internal/wtable"
)

// benchCorpusSize keeps open-time benchmarks meaningful (gob decode cost
// scales with the corpus; mmap open does not) without slowing the suite.
const benchCorpusSize = 1500

func benchSearcher(b *testing.B) *Searcher {
	b.Helper()
	ix, err := Build(benchTables())
	if err != nil {
		b.Fatal(err)
	}
	return NewSearcher(ix)
}

// benchTables is the corpus benchSearcher freezes.
func benchTables() []*wtable.Table {
	r := rand.New(rand.NewSource(2012))
	tables := make([]*wtable.Table, benchCorpusSize)
	for i := range tables {
		tables[i] = randDocTable(r, i)
	}
	return tables
}

// benchQueries is the 64-query random mix the probe benchmarks share.
func benchQueries() [][]string {
	r := rand.New(rand.NewSource(7))
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = randQuery(r)
	}
	return queries
}

// BenchmarkOpenIndexMmap measures the flat path: page-map the files and
// validate headers, O(1) in corpus size.
func BenchmarkOpenIndexMmap(b *testing.B) {
	dir := b.TempDir()
	if err := WriteDir(dir, benchTables(), 2); err != nil {
		b.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, DocsFileName)); err == nil {
		b.SetBytes(st.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := openSharded(false, dir)
		if err != nil {
			b.Fatal(err)
		}
		ss.Close()
	}
}

// BenchmarkShardedSearch probes an mmap-opened index at each shard count
// of the CHANGES.md trajectory (1, 2, 4, 8).
func BenchmarkShardedSearch(b *testing.B) {
	tables := benchTables()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			if err := WriteDir(dir, tables, n); err != nil {
				b.Fatal(err)
			}
			ss, err := openSharded(false, dir)
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			r := rand.New(rand.NewSource(7))
			queries := make([][]string, 64)
			for i := range queries {
				queries[i] = randQuery(r)
			}
			ss.Search(queries[0], 10) // fault in before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Search(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkSegmentedSearch probes an mmap-opened searcher over K=4
// segments of one shard each — the shape live ingest serves from: every
// segment past the first gathers under the floor carried from the
// segments before it. Same corpus and query mix as BenchmarkShardedSearch.
func BenchmarkSegmentedSearch(b *testing.B) {
	_, tables := buildRandCorpus(b, 2012, benchCorpusSize)
	var dirs []string
	for _, chunk := range splitTables(tables, 4, 2012) {
		dirs = append(dirs, b.TempDir())
		if err := WriteDir(dirs[len(dirs)-1], chunk, 1); err != nil {
			b.Fatal(err)
		}
	}
	s, err := openSharded(false, dirs...)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	queries := benchQueries()
	s.Search(queries[0], 10) // fault in before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkSingleShardSearch is the in-memory Searcher baseline over the
// same corpus and query mix as BenchmarkShardedSearch.
func BenchmarkSingleShardSearch(b *testing.B) {
	s := benchSearcher(b)
	r := rand.New(rand.NewSource(7))
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = randQuery(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkSearchMap measures the reference map-based scorer (oracle_test.go)
// on the same corpus and query mix — the before side of the CSR refactor.
func BenchmarkSearchMap(b *testing.B) {
	ix, _ := buildRandCorpus(b, 2012, benchCorpusSize)
	queries := benchQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(queries[i%len(queries)], 10)
	}
}
