package core

import (
	"reflect"
	"testing"
)

// statsFunc is a CorpusStats over a function.
type statsFunc func(string) float64

func (f statsFunc) IDF(w string) float64 { return f(w) }

// countingStats counts the lookups that reach the wrapped statistics.
type countingStats struct {
	CorpusStats
	n map[string]int
}

func (c countingStats) IDF(w string) float64 {
	c.n[w]++
	return c.CorpusStats.IDF(w)
}

// TestHeaderIDFMemoPerBuild pins the build's IDF memo. Every corpus query
// is built twice through one dirty scratch — BuildTables over half of its
// candidates, Extend with the rest — under two statistics that disagree
// on every shared token: each build must be bit-identical to a
// fresh-scratch Build under its own statistics, so no IDF of the first
// build leaks into the second. And each distinct token of the query and
// of the header cells the build weighs must reach the statistics exactly
// once per build, the tables Extend adds included. A build weighs the
// header cells segScores reads: by the string oracle, a cell of a headed
// table that holds a token of a query column with some weight.
func TestHeaderIDFMemoPerBuild(t *testing.T) {
	searcher, cases := corpusCases(t, 0.25, 40)
	flipped := statsFunc(func(w string) float64 { return 1 / (1 + searcher.IDF(w)) })
	views := NewViewCache()
	var s BuildScratch
	disagree := false
	var builds, lookups, allHeader int
	for _, c := range cases {
		var feats [2][][][]Features
		for i, stats := range []CorpusStats{searcher, flipped} {
			counts := countingStats{stats, map[string]int{}}
			b := &Builder{Params: DefaultParams(), Stats: counts, Views: views}
			k := len(c.tables) / 2
			got := b.BuildTables(c.cols, c.tables[:k], &s)
			got.Extend(b, c.tables[k:], &s)
			want := (&Builder{Params: DefaultParams(), Stats: stats, Views: views}).Build(c.cols, c.tables)
			if d := modelDiff(got, want, true); d != "" {
				t.Fatalf("stats %d, query %v: %s differs from a fresh-scratch build", i, c.cols, d)
			}
			feats[i] = want.Feats

			distinct, every := map[string]bool{}, map[string]bool{}
			for _, qc := range got.Q {
				for _, w := range qc.Tokens {
					distinct[w], every[w] = true, true
				}
			}
			for _, v := range got.Views {
				for r := 0; r < v.HeaderRowCount(); r++ {
					for col := 0; col < v.NumCols; col++ {
						hdr := headerStrings(v, r, col)
						for _, w := range hdr {
							every[w] = true
						}
						for _, qc := range got.Q {
							if qc.NormSq != 0 && strIntersectsHeader(qc.Tokens, v, r, col) {
								for _, w := range hdr {
									distinct[w] = true
								}
							}
						}
					}
				}
			}
			builds, lookups, allHeader = builds+1, lookups+len(counts.n), allHeader+len(every)
			for w, n := range counts.n {
				if n != 1 || !distinct[w] {
					t.Fatalf("stats %d, query %v: %q looked up %d times, want once for each distinct token", i, c.cols, w, n)
				}
			}
			if len(counts.n) != len(distinct) {
				t.Fatalf("stats %d, query %v: %d tokens looked up, want %d", i, c.cols, len(counts.n), len(distinct))
			}
		}
		disagree = disagree || !reflect.DeepEqual(feats[0], feats[1])
	}
	t.Logf("%.1f statistics lookups per build; weighing every header cell would make %.1f",
		float64(lookups)/float64(builds), float64(allHeader)/float64(builds))
	if !disagree {
		t.Fatal("the two statistics give identical features on every query: the test cannot see a stale memo")
	}
}
