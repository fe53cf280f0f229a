// Explorers reproduces the paper's Figure 1 scenario end to end: a
// three-column query "name of explorers | nationality | areas explored"
// over three web tables — a well-headed explorers table, a two-column
// table with swapped column order and a spurious second header row, and an
// irrelevant forest-reserves table whose context mentions "exploration".
//
// The column mapper must label table 1 relevant with columns Q1,Q2,Q3,
// table 2 relevant with column 1 -> Q3 and column 2 -> Q1, and table 3
// irrelevant — exactly the outcome described in §1.
package main

import (
	"fmt"
	"log"

	"wwt"
	"wwt/internal/core"
	"wwt/internal/extract"
	"wwt/internal/wtable"
)

var pages = map[string]string{
	// Web Table 1 of Figure 1.
	"http://wiki.example/explorers": `
<html><head><title>List of explorers - Wikipedia, the free encyclopedia</title></head><body>
<h1>List of explorers</h1>
<p>This article lists the explorations in history. For the documentary
'Explorations, powered by Duracell', see Explorations (TV).</p>
<table>
<tr><th>Name</th><th>Nationality</th><th>Main areas</th></tr>
<tr><th></th><th></th><th>explored</th></tr>
<tr><td>Abel Tasman</td><td>Dutch</td><td>Oceania</td></tr>
<tr><td>Vasco da Gama</td><td>Portuguese</td><td>Sea route to India</td></tr>
<tr><td>Alexander Mackenzie</td><td>British</td><td>Canada</td></tr>
<tr><td>James Cook</td><td>British</td><td>Pacific Ocean</td></tr>
</table>
</body></html>`,

	// Web Table 2: swapped order, spurious second header row.
	"http://history.example/explorations": `
<html><head><title>Explorations in chronological order</title></head><body>
<p>Great explorations of history, and who made them.</p>
<table>
<tr><th>Exploration</th><th>Who (explorer)</th></tr>
<tr><th>(Chronological order)</th><th></th></tr>
<tr><td>Sea route to India</td><td>Vasco da Gama</td></tr>
<tr><td>Caribbean</td><td>Christopher Columbus</td></tr>
<tr><td>Oceania</td><td>Abel Tasman</td></tr>
<tr><td>Pacific Ocean</td><td>James Cook</td></tr>
</table>
</body></html>`,

	// Web Table 3: irrelevant, but its context mentions exploration.
	"http://forestry.example/reserves": `
<html><head><title>Other Formal Reserves</title></head><body>
<p>Other Formal Reserves 1.3 Forest Reserves under the Forestry Act 1920.</p>
<table>
<tr><td><b>Forest reserves</b></td><td></td><td></td></tr>
<tr><th>ID</th><th>Name</th><th>Area</th></tr>
<tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
<tr><td>9</td><td>Plains Creek</td><td>880</td></tr>
<tr><td>13</td><td>Welcome Swamp</td><td>168</td></tr>
</table>
<p>All areas will be available for mineral exploration and mining.</p>
</body></html>`,

	// Background pages: on the real web, "Name" and "Area" are ubiquitous
	// header words; these pages give the index realistic IDF statistics so
	// an uninformative "Name" header cannot pin much query mass (§3.2.1).
	"http://lakes.example/list": `
<html><head><title>Lakes by size</title></head><body>
<table><tr><th>Name</th><th>Area</th></tr>
<tr><td>Lake Superior</td><td>82100</td></tr>
<tr><td>Lake Victoria</td><td>68870</td></tr>
<tr><td>Lake Huron</td><td>59600</td></tr></table>
</body></html>`,
	"http://parks.example/list": `
<html><head><title>National parks</title></head><body>
<table><tr><th>Name</th><th>Area</th><th>Established</th></tr>
<tr><td>Yellowstone</td><td>8983</td><td>1872</td></tr>
<tr><td>Yosemite</td><td>3027</td><td>1890</td></tr>
<tr><td>Grand Canyon</td><td>4926</td><td>1919</td></tr></table>
</body></html>`,
	"http://staff.example/directory": `
<html><head><title>Staff directory</title></head><body>
<table><tr><th>Name</th><th>Office</th></tr>
<tr><td>Dana Reeve</td><td>201</td></tr>
<tr><td>Sam Okafor</td><td>317</td></tr>
<tr><td>Li Wei</td><td>110</td></tr></table>
</body></html>`,
	"http://islands.example/list": `
<html><head><title>Islands of the Pacific</title></head><body>
<table><tr><th>Name</th><th>Area</th></tr>
<tr><td>New Guinea</td><td>785753</td></tr>
<tr><td>Borneo</td><td>748168</td></tr>
<tr><td>Sumatra</td><td>443066</td></tr></table>
</body></html>`,
}

func main() {
	var tables []*wtable.Table
	for url, html := range pages {
		tables = append(tables, extract.Page(url, html, extract.NewOptions())...)
	}
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		log.Fatal(err)
	}
	query := wwt.Query{Columns: []string{"name of explorers", "nationality", "areas explored"}}
	res, err := eng.Answer(query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Column mapping (the §3 task):")
	for ti, tb := range res.Tables {
		fmt.Printf("  %s\n", tb.ID)
		if !res.Labeling.Relevant(ti) {
			fmt.Println("    -> irrelevant")
			continue
		}
		for c := 0; c < tb.NumCols(); c++ {
			label := res.Labeling.Y[ti][c]
			desc := core.LabelString(label, len(query.Columns))
			if label >= 0 && label < len(query.Columns) {
				desc += " (" + query.Columns[label] + ")"
			}
			fmt.Printf("    column %d -> %s\n", c+1, desc)
		}
	}

	fmt.Println("\nConsolidated answer table:")
	fmt.Printf("%-24s %-14s %-22s %s\n", "NAME", "NATIONALITY", "AREAS EXPLORED", "SUPPORT")
	for _, row := range res.Answer.Rows {
		fmt.Printf("%-24s %-14s %-22s %d\n", row.Cells[0], row.Cells[1], row.Cells[2], row.Support)
	}
}
