package wwt_test

// Runnable godoc examples for the public API. They compile and run under
// `go test`, so the documented usage can never rot.

import (
	"context"
	"fmt"
	"log"

	"wwt"
	"wwt/internal/extract"
	"wwt/internal/wtable"
)

// examplePages is a tiny three-page "web crawl": two pages about
// currencies (one table headerless) and one irrelevant page. A slice, not
// a map, so extraction order — and therefore every example's output — is
// deterministic.
var examplePages = []struct{ url, html string }{
	{"http://money.example/currencies", `<html><head><title>Currencies of the world</title></head><body>
<h1>World currencies by country</h1><p>This article lists currencies of the world.</p>
<table><tr><th>Country</th><th>Currency</th></tr>
<tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr><tr><td>Brazil</td><td>Real</td></tr></table>
</body></html>`},
	{"http://blog.example/travel-money", `<html><head><title>Travel money tips</title></head><body>
<table><tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr><tr><td>Brazil</td><td>Real</td></tr></table>
</body></html>`},
	{"http://parks.example/reserves", `<html><head><title>Forest reserves</title></head><body>
<p>Forest reserves under the forestry act.</p>
<table><tr><th>ID</th><th>Name</th><th>Area</th></tr>
<tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
<tr><td>9</td><td>Plains Creek</td><td>880</td></tr></table>
</body></html>`},
}

// exampleEngine extracts the example pages (§2.1, offline) and indexes
// them into a ready engine.
func exampleEngine() *wwt.Engine {
	var tables []*wtable.Table
	for _, p := range examplePages {
		tables = append(tables, extract.Page(p.url, p.html, extract.NewOptions())...)
	}
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// ExampleEngine_Answer runs one column-keyword query through the full
// pipeline and prints the consolidated answer rows.
func ExampleEngine_Answer() {
	eng := exampleEngine()
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Answer.Rows {
		fmt.Printf("%s: %s (support %d)\n", row.Cells[0], row.Cells[1], row.Support)
	}
	// Output:
	// Brazil: Real (support 2)
	// France: Euro (support 2)
	// India: Indian rupee (support 2)
	// Japan: Yen (support 2)
}

// ExampleEngine_AnswerBatchCtx answers several queries as one batch on a
// bounded worker pool. A member that fails — here a stopword-only query —
// fills only its own error slot; the rest of the batch completes.
func ExampleEngine_AnswerBatchCtx() {
	eng := exampleEngine()
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
		{Columns: []string{"the of a"}}, // stopwords only: this member errors
	}
	br := eng.AnswerBatchCtx(context.Background(), queries, 2, 0)
	for i := range queries {
		if err := br.Errs[i]; err != nil {
			fmt.Printf("query %d failed: %v\n", i, err)
			continue
		}
		res := br.Results[i]
		fmt.Printf("query %d: %d answer rows from %d candidate tables\n",
			i, len(res.Answer.Rows), len(res.Tables))
	}
	// Output:
	// query 0: 4 answer rows from 2 candidate tables
	// query 1: 2 answer rows from 1 candidate tables
	// query 2 failed: wwt: query has no content words
}
