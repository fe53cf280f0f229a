package wwt_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wwt"
	"wwt/internal/index"
)

// TestEngineShardedFlatRoundTrip: an engine opened from the flat on-disk
// index — at every segment count K and shard count N — must answer
// identically to the in-memory engine over the same tables. At each grid
// point the retired version-1 layout must instead fail the whole open
// with an error naming wwt-index: one v1 postings file in the last
// segment is enough.
func TestEngineShardedFlatRoundTrip(t *testing.T) {
	tables := smallCorpus(t)
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	a, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 3, 8} {
		k = min(k, len(tables)) // segments are never empty
		for _, n := range []int{1, 2, 3, 8} {
			for _, fv := range []int{2, 1} {
				t.Run(fmt.Sprintf("K=%d,N=%d,v%d", k, n, fv), func(t *testing.T) {
					// Segment 0 is the index root; the rest are listed
					// segments, as ingests and merges leave them.
					root := t.TempDir()
					m := index.Manifest{Generation: 1}
					var last string
					for i := 0; i < k; i++ {
						entry := "."
						if i > 0 {
							entry = index.SegmentDirName(uint64(i))
						}
						last = filepath.Join(root, entry)
						if err := index.WriteDir(last, tables[i*len(tables)/k:(i+1)*len(tables)/k], n); err != nil {
							t.Fatal(err)
						}
						m.Segments = append(m.Segments, entry)
					}
					if err := index.WriteManifest(root, m); err != nil {
						t.Fatal(err)
					}
					if fv == 1 {
						path := filepath.Join(last, "postings-000.wwt")
						data, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						copy(data, "WWTFLT01")
						binary.LittleEndian.PutUint32(data[8:], 1)
						if err := os.WriteFile(path, data, 0o644); err != nil {
							t.Fatal(err)
						}
						eng2, err := wwt.OpenLive(root, nil)
						if err == nil {
							eng2.Close()
							t.Fatal("OpenLive served a version-1 postings file")
						}
						if !strings.Contains(err.Error(), "wwt-index") {
							t.Fatalf("v1 open error %q does not name wwt-index", err)
						}
						return
					}
					eng2, err := wwt.OpenLive(root, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer eng2.Close()
					if eng2.Searcher().Segments() != k || eng2.Searcher().Shards() != k*n {
						t.Fatalf("engine not wired to a %d-segment × %d-shard searcher", k, n)
					}

					b, err := eng2.Answer(q)
					if err != nil {
						t.Fatal(err)
					}
					if len(a.Answer.Rows) != len(b.Answer.Rows) {
						t.Fatalf("flat-opened engine differs: %d vs %d rows", len(b.Answer.Rows), len(a.Answer.Rows))
					}
					for i := range a.Answer.Rows {
						for c := range a.Answer.Rows[i].Cells {
							if a.Answer.Rows[i].Cells[c] != b.Answer.Rows[i].Cells[c] {
								t.Fatalf("row %d cell %d differs: %q vs %q",
									i, c, b.Answer.Rows[i].Cells[c], a.Answer.Rows[i].Cells[c])
							}
						}
						if a.Answer.Rows[i].Support != b.Answer.Rows[i].Support {
							t.Fatalf("row %d support differs", i)
						}
					}
				})
			}
		}
	}
}
