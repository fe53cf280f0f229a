// Package extract turns parsed HTML documents into wtable.Table values. It
// implements the paper's offline pipeline (§2.1): harvesting the contents of
// <table> tags, filtering out layout and artifact tables, classifying title
// and header rows with the formatting/layout/content heuristic of §2.1.1,
// and attaching scored context snippets from the surrounding DOM per §2.1.2.
package extract

import (
	"fmt"
	"strings"

	"wwt/internal/htmlx"
	"wwt/internal/wtable"
)

// Options tunes the extractor. The zero value is usable; NewOptions returns
// the defaults used in the paper-scale experiments.
type Options struct {
	// MinRows and MinCols gate the data-table filter.
	MinRows int
	MinCols int
	// MaxCellChars rejects tables with very long cells (layout artifacts).
	MaxCellChars int
	// MaxContextSnippets caps how many context snippets are kept per table.
	MaxContextSnippets int
}

// NewOptions returns the default extraction options.
func NewOptions() Options {
	return Options{MinRows: 2, MinCols: 1, MaxCellChars: 300, MaxContextSnippets: 12}
}

// Page extracts every data table from the HTML source of one page.
// url is used to mint table IDs ("url#k"). Tables that fail the data-table
// filter are dropped; the returned slice may be empty. Extraction never
// fails on malformed HTML.
func Page(url, src string, opts Options) []*wtable.Table {
	doc := htmlx.Parse(src)
	return Document(url, doc, opts)
}

// Document extracts data tables from an already-parsed DOM.
func Document(url string, doc *htmlx.Node, opts Options) []*wtable.Table {
	pageTitle := ""
	if t := doc.FindFirst("title"); t != nil {
		pageTitle = t.InnerText()
	}
	var out []*wtable.Table
	for i, tnode := range doc.Find("table") {
		raw, cues := rawRows(tnode)
		if !isDataTable(raw, tnode, opts) {
			continue
		}
		tb := &wtable.Table{
			ID:        fmt.Sprintf("%s#%d", url, i),
			URL:       url,
			PageTitle: pageTitle,
		}
		classifyRows(raw, cues, tb)
		if len(tb.BodyRows) == 0 {
			continue
		}
		tb.Context = contextSnippets(doc, tnode, opts.MaxContextSnippets)
		if cap := tnode.FindFirst("caption"); cap != nil {
			tb.TitleRows = append([]wtable.Row{{Cells: []wtable.Cell{{Text: cap.InnerText(), Bold: true}}}}, tb.TitleRows...)
		}
		out = append(out, tb)
	}
	return out
}

// rowCue is one raw row's layout cue for the header detector (§2.1.1):
// the first non-empty background colour and CSS class among its cells.
// It lives beside the raw rows only while a table is classified.
type rowCue struct {
	bg, class string
}

// rawRows materializes the rows of a table element, skipping rows belonging
// to nested tables, capturing per-cell formatting markers and, per row,
// its layout cue.
func rawRows(tnode *htmlx.Node) ([]wtable.Row, []rowCue) {
	var (
		rows []wtable.Row
		cues []rowCue
	)
	for _, tr := range tnode.Find("tr") {
		if nestedIn(tr, tnode) {
			continue
		}
		var (
			row wtable.Row
			cue rowCue
		)
		for _, cellNode := range cellsOf(tr) {
			row.Cells = append(row.Cells, makeCell(cellNode))
			if cue.bg == "" {
				cue.bg = styleColor(cellNode)
			}
			if cue.class == "" {
				cue.class = cellNode.Attr("class")
			}
		}
		if len(row.Cells) > 0 {
			rows = append(rows, row)
			cues = append(cues, cue)
		}
	}
	return rows, cues
}

// nestedIn reports whether n sits inside a table nested below root.
func nestedIn(n *htmlx.Node, root *htmlx.Node) bool {
	for cur := n.Parent; cur != nil && cur != root; cur = cur.Parent {
		if cur.Type == htmlx.ElementNode && cur.Tag == "table" {
			return true
		}
	}
	return false
}

func cellsOf(tr *htmlx.Node) []*htmlx.Node {
	var cells []*htmlx.Node
	for _, c := range tr.Children {
		if c.Type == htmlx.ElementNode && (c.Tag == "td" || c.Tag == "th") {
			cells = append(cells, c)
		}
	}
	return cells
}

func makeCell(n *htmlx.Node) wtable.Cell {
	cell := wtable.Cell{Text: n.InnerText(), IsTH: n.Tag == "th"}
	n.Walk(func(d *htmlx.Node) {
		if d.Type != htmlx.ElementNode {
			return
		}
		switch d.Tag {
		case "b", "strong":
			cell.Bold = true
		case "i", "em":
			cell.Italic = true
		case "u":
			cell.Underline = true
		}
	})
	return cell
}

func styleColor(n *htmlx.Node) string {
	if bg := n.Attr("bgcolor"); bg != "" {
		return bg
	}
	style := n.Attr("style")
	if idx := strings.Index(style, "background"); idx >= 0 {
		rest := style[idx:]
		if colon := strings.IndexByte(rest, ':'); colon >= 0 {
			val := rest[colon+1:]
			if semi := strings.IndexByte(val, ';'); semi >= 0 {
				val = val[:semi]
			}
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// isDataTable implements the relational-information filter of §2.1: the
// table tag is frequently used for layout, forms, calendars and lists; only
// about 10% of table tags carry data. The heuristics here mirror those
// signals: enough rows, a dominant column count >= MinCols, mostly short
// cells, and no embedded form controls.
func isDataTable(rows []wtable.Row, tnode *htmlx.Node, opts Options) bool {
	if len(rows) < opts.MinRows {
		return false
	}
	// Forms and widgets are not data.
	if tnode.FindFirst("input") != nil || tnode.FindFirst("select") != nil ||
		tnode.FindFirst("textarea") != nil || tnode.FindFirst("button") != nil {
		return false
	}
	// Dominant column count: at least 60% of rows agree, and it meets the
	// minimum width.
	counts := map[int]int{}
	for _, r := range rows {
		counts[len(r.Cells)]++
	}
	bestCols, bestN := 0, 0
	for c, n := range counts {
		if n > bestN || (n == bestN && c > bestCols) {
			bestCols, bestN = c, n
		}
	}
	if bestCols < opts.MinCols {
		return false
	}
	if bestN*10 < len(rows)*6 {
		return false
	}
	// Layout tables tend to hold one giant cell or very long prose cells.
	long, cells := 0, 0
	for _, r := range rows {
		for _, c := range r.Cells {
			cells++
			if len(c.Text) > opts.MaxCellChars {
				long++
			}
		}
	}
	if cells == 0 || long*4 >= cells {
		return false
	}
	// Calendars: >80% of cells are bare day numbers 1..31 on a wide grid.
	if bestCols >= 5 {
		days := 0
		for _, r := range rows {
			for _, c := range r.Cells {
				if isDayNumber(strings.TrimSpace(c.Text)) {
					days++
				}
			}
		}
		if days*10 >= cells*8 {
			return false
		}
	}
	return true
}

func isDayNumber(s string) bool {
	if len(s) == 0 || len(s) > 2 {
		return false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n >= 1 && n <= 31
}
