// Quickstart: extract tables from raw HTML pages, build an engine, and
// answer a two-column keyword query. This is the smallest end-to-end use
// of the public API.
package main

import (
	"fmt"
	"log"

	"wwt"
	"wwt/internal/extract"
	"wwt/internal/wtable"
)

// Three tiny "web pages": two about currencies (one headerless), one about
// forest reserves (irrelevant).
var pages = map[string]string{
	"http://money.example/currencies": `
<html><head><title>Currencies of the world</title></head><body>
<h1>World currencies</h1>
<p>This article lists the currencies of the world by country.</p>
<table>
<tr><th>Country</th><th>Currency</th></tr>
<tr><td>France</td><td>Euro</td></tr>
<tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr>
<tr><td>Brazil</td><td>Real</td></tr>
</table>
</body></html>`,

	"http://blog.example/travel-money": `
<html><head><title>Travel money tips</title></head><body>
<p>Cash you will need on your trip:</p>
<table>
<tr><td>United Kingdom</td><td>Pound sterling</td></tr>
<tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr>
<tr><td>Switzerland</td><td>Swiss franc</td></tr>
</table>
</body></html>`,

	"http://parks.example/reserves": `
<html><head><title>Forest reserves</title></head><body>
<p>Forest reserves under the Forestry Act.</p>
<table>
<tr><th>ID</th><th>Name</th><th>Area</th></tr>
<tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
<tr><td>9</td><td>Plains Creek</td><td>880</td></tr>
<tr><td>13</td><td>Welcome Swamp</td><td>168</td></tr>
</table>
</body></html>`,
}

func main() {
	// Offline: extract data tables from the crawl (§2.1).
	var tables []*wtable.Table
	for url, html := range pages {
		tables = append(tables, extract.Page(url, html, extract.NewOptions())...)
	}
	fmt.Printf("extracted %d data tables\n", len(tables))

	// Build the engine (index + store).
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Online: a two-column keyword query.
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("candidates: %d, answer rows: %d\n\n", len(res.Tables), len(res.Answer.Rows))
	fmt.Printf("%-20s %-20s %s\n", "COUNTRY", "CURRENCY", "SUPPORT")
	for _, row := range res.Answer.Rows {
		fmt.Printf("%-20s %-20s %d\n", row.Cells[0], row.Cells[1], row.Support)
	}

	// The headerless table was recovered via content overlap; the forest
	// reserves table was rejected.
	for ti, tb := range res.Tables {
		status := "irrelevant"
		if res.Labeling.Relevant(ti) {
			status = "relevant"
		}
		fmt.Printf("\n%-12s %s", status, tb.ID)
	}
	fmt.Println()
}
