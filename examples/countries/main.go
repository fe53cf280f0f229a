// Countries runs several country-centric queries over the full synthetic
// corpus, demonstrating that the same candidate universe (dozens of
// country tables about currencies, populations, GDPs and exchange rates)
// is carved up differently per query: a country|gdp table is a genuine
// answer source for the GDP query and a confusable distractor for the
// currency query.
package main

import (
	"fmt"
	"log"

	"wwt"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
)

func main() {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012})
	tables := corpus.ExtractAll(extract.NewOptions())
	fmt.Printf("corpus: %d pages, %d data tables\n\n", len(corpus.Pages), len(tables))

	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		log.Fatal(err)
	}

	queries := [][]string{
		{"country", "currency"},
		{"country", "gdp"},
		{"country", "population"},
		{"country", "us dollar exchange rate"},
	}
	for _, cols := range queries {
		res, err := eng.Answer(wwt.Query{Columns: cols})
		if err != nil {
			log.Fatal(err)
		}
		relevant := 0
		for ti := range res.Tables {
			if res.Labeling.Relevant(ti) {
				relevant++
			}
		}
		fmt.Printf("=== %s | %s ===\n", cols[0], cols[1])
		fmt.Printf("candidates=%d relevant=%d rows=%d probe2=%v total=%.0fms\n",
			len(res.Tables), relevant, len(res.Answer.Rows), res.UsedProbe2,
			float64(res.Timings.Total().Microseconds())/1000)
		for i, row := range res.Answer.Rows {
			if i >= 5 {
				fmt.Printf("  ... %d more rows\n", len(res.Answer.Rows)-5)
				break
			}
			fmt.Printf("  %-16s %-22s support=%d\n", row.Cells[0], row.Cells[1], row.Support)
		}
		fmt.Println()
	}
}
