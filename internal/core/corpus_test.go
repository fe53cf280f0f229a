package core

import (
	"testing"

	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/text"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// corpusCase is one workload query with the candidate tables a first
// probe returns for it.
type corpusCase struct {
	cols   []string
	tables []*wtable.Table
}

// corpusCases generates the seed-2012 corpus at the given scale, indexes
// it, and returns its searcher (the corpus statistics) plus, for every
// workload query, the top-k first-probe candidates: the model-build
// inputs the engine's pipeline sees.
func corpusCases(tb testing.TB, scale float64, k int) (*index.Searcher, []corpusCase) {
	tb.Helper()
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: scale})
	tables := corpus.ExtractAll(extract.NewOptions())
	ix, err := index.Build(tables)
	if err != nil {
		tb.Fatal(err)
	}
	s := index.NewSearcher(ix)
	byID := make(map[string]*wtable.Table, len(tables))
	for _, t := range tables {
		byID[t.ID] = t
	}
	var out []corpusCase
	for _, q := range workload.FromCorpus(corpus) {
		var toks []string
		for _, c := range q.Columns {
			toks = append(toks, text.Normalize(c)...)
		}
		var cands []*wtable.Table
		for _, h := range s.Search(toks, k) {
			cands = append(cands, byID[h.ID])
		}
		out = append(out, corpusCase{cols: q.Columns, tables: cands})
	}
	return s, out
}

// BenchmarkBuildRawEdges measures the whole §3.3 edge pass — the
// shared-cell count, every table pair's Jaccard grid and blended
// max-matching, and the neighborhood normalization — over each corpus
// query's candidates, each model's edges rebuilt through the warm scratch
// it was built in. One op is one pass over every query.
func BenchmarkBuildRawEdges(b *testing.B) {
	searcher, cases := corpusCases(b, 0.25, 40)
	builder := &Builder{Params: DefaultParams(), Stats: searcher, Views: NewViewCache()}
	models := make([]*Model, len(cases))
	scratch := make([]BuildScratch, len(cases))
	for i, c := range cases {
		models[i] = buildIn(builder, c.cols, c.tables, &scratch[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range models {
			m.buildRawEdges(&scratch[j])
		}
	}
}
