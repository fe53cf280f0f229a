package htmlx

import (
	"strings"
	"testing"
)

func TestParseSimpleTree(t *testing.T) {
	doc := Parse(`<html><body><p>Hello <b>World</b></p></body></html>`)
	ps := doc.Find("p")
	if len(ps) != 1 {
		t.Fatalf("want 1 <p>, got %d", len(ps))
	}
	if got := ps[0].InnerText(); got != "Hello World" {
		t.Errorf("InnerText = %q", got)
	}
	if doc.FindFirst("b") == nil {
		t.Error("missing <b>")
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<table class="data wide" border=1 data-x='7'><tr><td>x</td></tr></table>`)
	tb := doc.FindFirst("table")
	if tb == nil {
		t.Fatal("no table")
	}
	if tb.Attr("class") != "data wide" {
		t.Errorf("class = %q", tb.Attr("class"))
	}
	if tb.Attr("border") != "1" {
		t.Errorf("border = %q", tb.Attr("border"))
	}
	if tb.Attr("data-x") != "7" {
		t.Errorf("data-x = %q", tb.Attr("data-x"))
	}
	if tb.Attr("missing") != "" {
		t.Errorf("missing attr should be empty")
	}
}

func TestParseUnclosedTableCells(t *testing.T) {
	// Permissive markup: no </td>, no </tr>.
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c<td>d</table>`)
	trs := doc.Find("tr")
	if len(trs) != 2 {
		t.Fatalf("want 2 rows, got %d", len(trs))
	}
	for i, tr := range trs {
		tds := tr.Find("td")
		if len(tds) != 2 {
			t.Errorf("row %d: want 2 cells, got %d", i, len(tds))
		}
	}
	if got := trs[1].InnerText(); got != "c d" {
		t.Errorf("row 2 text = %q", got)
	}
}

func TestParseNestedTableScope(t *testing.T) {
	doc := Parse(`<table><tr><td><table><tr><td>inner</td></tr></table></td><td>outer2</td></tr></table>`)
	tables := doc.Find("table")
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	outerRows := 0
	for _, tr := range doc.Find("tr") {
		if !tr.HasAncestor(tables[1]) {
			outerRows++
		}
	}
	if outerRows != 1 {
		t.Errorf("outer table rows = %d, want 1", outerRows)
	}
	// The inner <tr> must not have auto-closed the outer <td>.
	outerCells := tables[0].Children[0].Find("td")
	_ = outerCells
	innerTable := tables[1]
	if !innerTable.HasAncestor(tables[0]) {
		t.Error("inner table should be nested inside outer table")
	}
}

func TestParseCommentsAndDoctype(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><!-- a comment --><p>text</p>`)
	if doc.FindFirst("p") == nil {
		t.Fatal("p lost")
	}
	var comments int
	doc.Walk(func(n *Node) {
		if n.Type == CommentNode {
			comments++
		}
	})
	if comments != 1 {
		t.Errorf("comments = %d, want 1", comments)
	}
}

func TestParseScriptRawText(t *testing.T) {
	doc := Parse(`<script>if (a < b) { x("<td>"); }</script><p>after</p>`)
	if doc.FindFirst("td") != nil {
		t.Error("script content leaked into DOM")
	}
	if doc.FindFirst("p") == nil {
		t.Error("content after script lost")
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<p>a<br>b<img src="x.png">c</p>`)
	p := doc.FindFirst("p")
	if p == nil {
		t.Fatal("no p")
	}
	if got := p.InnerText(); got != "a b c" {
		t.Errorf("text = %q", got)
	}
}

func TestParseEntities(t *testing.T) {
	doc := Parse(`<td>Fish &amp; Chips &lt;small&gt;</td>`)
	td := doc.FindFirst("td")
	if td == nil {
		t.Fatal("no td")
	}
	if got := td.InnerText(); got != "Fish & Chips <small>" {
		t.Errorf("text = %q", got)
	}
}

func TestParseStrayCloseTags(t *testing.T) {
	doc := Parse(`</div><p>ok</p></table>`)
	if doc.FindFirst("p") == nil {
		t.Error("content lost around stray close tags")
	}
}

func TestParseMalformedNeverPanics(t *testing.T) {
	cases := []string{
		"<", "<x", "<table><tr><td", "<!--", "<a href=", `<a href="unterminated`,
		"<<<>>>", "</", "<table></p></table>", strings.Repeat("<div>", 2000),
	}
	for _, c := range cases {
		_ = Parse(c) // must not panic
	}
}

func TestPathToRoot(t *testing.T) {
	doc := Parse(`<html><body><div><table><tr><td>x</td></tr></table></div></body></html>`)
	td := doc.FindFirst("td")
	path := td.PathToRoot()
	if path[0] != td {
		t.Error("path should start at node")
	}
	if path[len(path)-1] != doc {
		t.Error("path should end at document")
	}
	want := []string{"td", "tr", "table", "div", "body", "html"}
	for i, w := range want {
		if path[i].Tag != w {
			t.Errorf("path[%d] = %q, want %q", i, path[i].Tag, w)
		}
	}
}

func TestChildIndex(t *testing.T) {
	doc := Parse(`<ul><li>a</li><li>b</li><li>c</li></ul>`)
	ul := doc.FindFirst("ul")
	if ul == nil || len(ul.Children) != 3 {
		t.Fatalf("bad ul: %+v", ul)
	}
	if ul.ChildIndex(ul.Children[2]) != 2 {
		t.Error("ChildIndex wrong")
	}
	if ul.ChildIndex(&Node{}) != -1 {
		t.Error("ChildIndex of foreign node should be -1")
	}
}

func TestTitleExtraction(t *testing.T) {
	doc := Parse(`<html><head><title>List of explorers - Wikipedia</title></head><body></body></html>`)
	ti := doc.FindFirst("title")
	if ti == nil {
		t.Fatal("no title")
	}
	if got := ti.InnerText(); got != "List of explorers - Wikipedia" {
		t.Errorf("title = %q", got)
	}
}

func TestParseTHAndTheadStructure(t *testing.T) {
	doc := Parse(`<table><thead><tr><th>Name</th><th>Area</th></tr></thead><tbody><tr><td>x</td><td>1</td></tr></tbody></table>`)
	if n := len(doc.Find("th")); n != 2 {
		t.Errorf("th count = %d", n)
	}
	if n := len(doc.Find("tr")); n != 2 {
		t.Errorf("tr count = %d", n)
	}
	thead := doc.FindFirst("thead")
	if thead == nil || len(thead.Find("th")) != 2 {
		t.Error("thead structure broken")
	}
}

// HasAncestor reports whether a is a proper ancestor of n.
func (n *Node) HasAncestor(a *Node) bool {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur == a {
			return true
		}
	}
	return false
}
