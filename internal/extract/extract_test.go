package extract

import (
	"fmt"
	"strings"
	"testing"

	"wwt/internal/wtable"
)

const explorersPage = `
<html><head><title>List of explorers - Wikipedia, the free encyclopedia</title></head>
<body>
<h1>List of explorers</h1>
<p>This article lists the explorations in history.</p>
<table>
<tr><th>Name</th><th>Nationality</th><th>Main areas explored</th></tr>
<tr><td>Abel Tasman</td><td>Dutch</td><td>Oceania</td></tr>
<tr><td>Vasco da Gama</td><td>Portuguese</td><td>Sea route to India</td></tr>
<tr><td>Alexander Mackenzie</td><td>British</td><td>Canada</td></tr>
</table>
<p>See also: Explorations (TV)</p>
</body></html>`

func TestExtractBasicTable(t *testing.T) {
	tables := Page("http://wiki/explorers", explorersPage, NewOptions())
	if len(tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(tables))
	}
	tb := tables[0]
	if tb.NumCols() != 3 {
		t.Errorf("cols = %d", tb.NumCols())
	}
	if len(tb.HeaderRows) != 1 {
		t.Fatalf("header rows = %d, want 1", len(tb.HeaderRows))
	}
	if tb.Header(0, 1) != "Nationality" {
		t.Errorf("header(0,1) = %q", tb.Header(0, 1))
	}
	if len(tb.BodyRows) != 3 {
		t.Errorf("body rows = %d", len(tb.BodyRows))
	}
	if tb.Body(1, 0) != "Vasco da Gama" {
		t.Errorf("body(1,0) = %q", tb.Body(1, 0))
	}
	if tb.PageTitle == "" || !strings.Contains(tb.PageTitle, "explorers") {
		t.Errorf("page title = %q", tb.PageTitle)
	}
}

func TestExtractContextSnippets(t *testing.T) {
	tables := Page("u", explorersPage, NewOptions())
	if len(tables) != 1 {
		t.Fatal("extraction failed")
	}
	ctx := tables[0].ContextText()
	if !strings.Contains(ctx, "explorations in history") {
		t.Errorf("context missing intro paragraph: %q", ctx)
	}
	if !strings.Contains(ctx, "List of explorers") {
		t.Errorf("context missing heading/title: %q", ctx)
	}
	// Snippets must be scored and sorted descending.
	for i := 1; i < len(tables[0].Context); i++ {
		if tables[0].Context[i].Score > tables[0].Context[i-1].Score {
			t.Errorf("snippets not sorted by score")
		}
	}
}

func TestHeaderDetectionWithoutTH(t *testing.T) {
	// 80% of web tables do not use <th>; bold-vs-plain must still work.
	page := `<html><body><table>
<tr><td><b>Country</b></td><td><b>Currency</b></td></tr>
<tr><td>France</td><td>Euro</td></tr>
<tr><td>Japan</td><td>Yen</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if len(tables[0].HeaderRows) != 1 {
		t.Fatalf("header rows = %d, want 1", len(tables[0].HeaderRows))
	}
	if tables[0].Header(0, 0) != "Country" {
		t.Errorf("header = %q", tables[0].Header(0, 0))
	}
}

func TestHeaderlessTable(t *testing.T) {
	// 18% of tables have no header: uniform formatting must yield none.
	page := `<html><body><table>
<tr><td>France</td><td>Euro</td></tr>
<tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Rupee</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if len(tables[0].HeaderRows) != 0 {
		t.Errorf("header rows = %d, want 0 (got %v)", len(tables[0].HeaderRows), rowTexts(tables[0].HeaderRows[0]))
	}
	if len(tables[0].BodyRows) != 3 {
		t.Errorf("body rows = %d, want 3", len(tables[0].BodyRows))
	}
}

func TestMultiRowHeader(t *testing.T) {
	page := `<html><body><table>
<tr><th>Name</th><th>Nationality</th><th>Main areas</th></tr>
<tr><th></th><th></th><th>explored</th></tr>
<tr><td>Abel Tasman</td><td>Dutch</td><td>Oceania</td></tr>
<tr><td>Vasco da Gama</td><td>Portuguese</td><td>Sea route</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if got := len(tables[0].HeaderRows); got != 2 {
		t.Fatalf("header rows = %d, want 2", got)
	}
	ht := tables[0].HeaderText(2)
	if len(ht) != 2 || ht[1] != "explored" {
		t.Errorf("split header = %v", ht)
	}
}

func TestTitleRowDetection(t *testing.T) {
	page := `<html><body><table>
<tr><td><b>Forest reserves</b></td><td></td><td></td></tr>
<tr><th>ID</th><th>Name</th><th>Area</th></tr>
<tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
<tr><td>9</td><td>Plains Creek</td><td>880</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	tb := tables[0]
	if len(tb.TitleRows) != 1 {
		t.Fatalf("title rows = %d, want 1 (headers=%d)", len(tb.TitleRows), len(tb.HeaderRows))
	}
	if !strings.Contains(tb.TitleText(), "Forest reserves") {
		t.Errorf("title = %q", tb.TitleText())
	}
	if len(tb.HeaderRows) != 1 || tb.Header(0, 0) != "ID" {
		t.Errorf("header after title wrong: %d rows", len(tb.HeaderRows))
	}
}

func TestLayoutTableRejected(t *testing.T) {
	long := strings.Repeat("lorem ipsum dolor sit amet ", 30)
	page := `<html><body><table><tr><td>` + long + `</td></tr><tr><td>` + long + `</td></tr></table></body></html>`
	if tables := Page("u", page, NewOptions()); len(tables) != 0 {
		t.Errorf("layout table accepted: %d", len(tables))
	}
}

func TestFormTableRejected(t *testing.T) {
	page := `<html><body><table>
<tr><td>Name</td><td><input type="text" name="n"></td></tr>
<tr><td>Email</td><td><input type="text" name="e"></td></tr>
</table></body></html>`
	if tables := Page("u", page, NewOptions()); len(tables) != 0 {
		t.Error("form table accepted")
	}
}

func TestCalendarRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<html><body><table>`)
	day := 1
	for r := 0; r < 5; r++ {
		b.WriteString("<tr>")
		for c := 0; c < 7; c++ {
			if day <= 31 {
				b.WriteString("<td>")
				b.WriteString(strings.TrimSpace(string(rune('0'+day/10)) + string(rune('0'+day%10))))
				b.WriteString("</td>")
				day++
			} else {
				b.WriteString("<td></td>")
			}
		}
		b.WriteString("</tr>")
	}
	b.WriteString(`</table></body></html>`)
	if tables := Page("u", b.String(), NewOptions()); len(tables) != 0 {
		t.Error("calendar accepted as data table")
	}
}

func TestSmallTableRejected(t *testing.T) {
	page := `<html><body><table><tr><td>only</td></tr></table></body></html>`
	if tables := Page("u", page, NewOptions()); len(tables) != 0 {
		t.Error("single-row table accepted")
	}
}

func TestNestedTables(t *testing.T) {
	page := `<html><body><table>
<tr><th>A</th><th>B</th></tr>
<tr><td><table><tr><td>i1</td><td>i2</td></tr><tr><td>i3</td><td>i4</td></tr></table></td><td>outer</td></tr>
<tr><td>x</td><td>y</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	// Outer and inner both extracted (both structurally data-ish); the
	// inner rows must not leak into the outer table.
	for _, tb := range tables {
		for _, r := range tb.BodyRows {
			for _, c := range r.Cells {
				if strings.Contains(c.Text, "i1 i2") && tb.NumCols() == 2 && len(tb.BodyRows) > 2 {
					t.Error("nested rows leaked into outer table")
				}
			}
		}
	}
	if len(tables) < 1 {
		t.Fatal("no tables")
	}
}

func TestCaptionBecomesTitle(t *testing.T) {
	page := `<html><body><table><caption>Forest Reserves 2020</caption>
<tr><th>Name</th><th>Area</th></tr>
<tr><td>Plains Creek</td><td>880</td></tr>
<tr><td>Welcome Swamp</td><td>168</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if !strings.Contains(tables[0].TitleText(), "Forest Reserves 2020") {
		t.Errorf("caption not promoted to title: %q", tables[0].TitleText())
	}
}

func TestTableIDsUnique(t *testing.T) {
	page := `<html><body>
<table><tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr></table>
<table><tr><th>C</th><th>D</th></tr><tr><td>3</td><td>4</td></tr></table>
</body></html>`
	tables := Page("http://x", page, NewOptions())
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	if tables[0].ID == tables[1].ID {
		t.Error("duplicate table IDs")
	}
	for _, tb := range tables {
		if err := tb.Validate(); err != nil {
			t.Errorf("invalid extracted table: %v", err)
		}
	}
}

func TestRaggedRowsTolerated(t *testing.T) {
	page := `<html><body><table>
<tr><th>A</th><th>B</th><th>C</th></tr>
<tr><td>1</td><td>2</td><td>3</td></tr>
<tr><td>4</td><td>5</td></tr>
<tr><td>6</td><td>7</td><td>8</td></tr>
</table></body></html>`
	tables := Page("u", page, NewOptions())
	if len(tables) != 1 {
		t.Fatal("ragged table rejected")
	}
	if tables[0].NumCols() != 3 {
		t.Errorf("cols = %d", tables[0].NumCols())
	}
	if got := tables[0].Body(1, 2); got != "" {
		t.Errorf("missing cell should read empty, got %q", got)
	}
}

var _ = wtable.Table{} // keep import if assertions change

// TestHeaderByLayoutCuesOnly: a header row set apart from the body only by
// a layout cue — a bgcolor attribute, an inline background style or a CSS
// class, on any of its cells — is classified by that cue alone. Every
// other signal (tags, bold, capitalisation, numerals, cell length) is the
// same on every row, so each table's split below rests on the row cues
// extraction keeps beside its raw rows.
func TestHeaderByLayoutCuesOnly(t *testing.T) {
	body := func(n int, attr string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<tr><td%s>tokyo</td><td%s>japan</td></tr>\n", attr, attr)
		}
		return b.String()
	}
	cases := []struct {
		name                 string
		rows                 string
		title, header, bodyN int
	}{
		{"bgcolor", `<tr><td bgcolor="#ccc">city</td><td bgcolor="#ccc">land</td></tr>` + body(4, ""), 0, 1, 4},
		{"style background", `<tr><td style="font-size:9px; background: #eee ;">city</td><td>land</td></tr>` + body(4, ""), 0, 1, 4},
		{"class", `<tr><td class="hdr">city</td><td class="hdr">land</td></tr>` + body(4, ""), 0, 1, 4},
		{"cue on a later cell", `<tr><td>city</td><td class="hdr">land</td></tr>` + body(4, ""), 0, 1, 4},
		{"two header rows", `<tr><td bgcolor="red">city</td><td>land</td></tr><tr><td bgcolor="red">town</td><td>area</td></tr>` + body(4, ""), 0, 2, 4},
		{"same cue everywhere", `<tr><td bgcolor="#ccc">city</td><td>land</td></tr>` + body(4, ` bgcolor="#ccc"`), 0, 0, 5},
		{"different cue on the body", `<tr><td class="a">city</td><td>land</td></tr>` + body(4, ` class="b"`), 0, 1, 4},
		{"bgcolor wins over style", `<tr><td bgcolor="red" style="background:blue">city</td><td>land</td></tr>` + body(4, ` style="background:red"`), 0, 0, 5},
		{"title then header", `<tr><td class="t">cities</td><td></td></tr><tr><td bgcolor="#ccc">city</td><td>land</td></tr>` + body(4, ""), 1, 1, 4},
		{"no cue", `<tr><td>city</td><td>land</td></tr>` + body(4, ""), 0, 0, 5},
	}
	for _, c := range cases {
		page := "<html><body><table>\n" + c.rows + "</table></body></html>"
		tables := Page("u", page, NewOptions())
		if len(tables) != 1 {
			t.Errorf("%s: %d tables, want 1", c.name, len(tables))
			continue
		}
		tb := tables[0]
		if got := [3]int{len(tb.TitleRows), len(tb.HeaderRows), len(tb.BodyRows)}; got != [3]int{c.title, c.header, c.bodyN} {
			t.Errorf("%s: title/header/body rows = %v, want %v", c.name, got, [3]int{c.title, c.header, c.bodyN})
		}
	}
}

// rowTexts returns the trimmed text of every cell of r.
func rowTexts(r wtable.Row) []string {
	out := make([]string, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = strings.TrimSpace(c.Text)
	}
	return out
}
