package wtable

import (
	"strings"
	"testing"
	"unsafe"
)

func row(texts ...string) Row {
	cells := make([]Cell, len(texts))
	for i, t := range texts {
		cells[i] = Cell{Text: t}
	}
	return Row{Cells: cells}
}

func sample() *Table {
	return &Table{
		ID:        "t1",
		URL:       "http://example.com/page",
		PageTitle: "List of explorers",
		TitleRows: []Row{row("Explorers")},
		HeaderRows: []Row{
			row("Name", "Nationality", "Main areas"),
			row("", "", "explored"),
		},
		BodyRows: []Row{
			row("Abel Tasman", "Dutch", "Oceania"),
			row("Vasco da Gama", "Portuguese", "Sea route to India"),
		},
		Context: []Snippet{{Text: "This article lists the explorations in history", Score: 0.8}},
	}
}

func TestNumCols(t *testing.T) {
	tb := sample()
	if tb.NumCols() != 3 {
		t.Errorf("NumCols = %d, want 3", tb.NumCols())
	}
	ragged := &Table{ID: "r", BodyRows: []Row{row("a"), row("a", "b", "c", "d")}}
	if ragged.NumCols() != 4 {
		t.Errorf("ragged NumCols = %d, want 4", ragged.NumCols())
	}
}

func TestHeaderAccess(t *testing.T) {
	tb := sample()
	if got := tb.Header(0, 2); got != "Main areas" {
		t.Errorf("Header(0,2) = %q", got)
	}
	if got := tb.Header(1, 2); got != "explored" {
		t.Errorf("Header(1,2) = %q", got)
	}
	if got := tb.Header(5, 0); got != "" {
		t.Errorf("out-of-range header = %q", got)
	}
	if got := tb.Header(0, 9); got != "" {
		t.Errorf("out-of-range col = %q", got)
	}
}

func TestHeaderTextMultiRow(t *testing.T) {
	tb := sample()
	ht := tb.HeaderText(2)
	if len(ht) != 2 || ht[0] != "Main areas" || ht[1] != "explored" {
		t.Errorf("HeaderText(2) = %v", ht)
	}
	if ht := tb.HeaderText(0); len(ht) != 1 {
		t.Errorf("HeaderText(0) should skip empty second row: %v", ht)
	}
}

func TestColumnText(t *testing.T) {
	tb := sample()
	col := tb.ColumnText(1)
	if len(col) != 2 || col[0] != "Dutch" || col[1] != "Portuguese" {
		t.Errorf("ColumnText(1) = %v", col)
	}
}

func TestTitleAndContext(t *testing.T) {
	tb := sample()
	if tb.TitleText() != "Explorers" {
		t.Errorf("TitleText = %q", tb.TitleText())
	}
	if !strings.Contains(tb.ContextText(), "explorations") {
		t.Errorf("ContextText = %q", tb.ContextText())
	}
}

func TestValidate(t *testing.T) {
	tb := sample()
	if err := tb.Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	bad := &Table{ID: "x"}
	if err := bad.Validate(); err == nil {
		t.Error("empty table accepted")
	}
	noID := &Table{BodyRows: []Row{row("a")}}
	if err := noID.Validate(); err == nil {
		t.Error("missing ID accepted")
	}
}

func TestCellIsEmpty(t *testing.T) {
	if !(Cell{Text: "  "}).IsEmpty() {
		t.Error("whitespace cell should be empty")
	}
	if (Cell{Text: "x"}).IsEmpty() {
		t.Error("non-empty cell misreported")
	}
}

// TestCellSize pins a resident cell at its text header plus four flag
// bytes: most of a decoded table store is cells, so a field added here
// costs every cell of the corpus.
func TestCellSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 24-byte figure is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Cell{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Cell{}) = %d, want 24", got)
	}
}

func TestRowCellPadding(t *testing.T) {
	r := row("a")
	if got := r.Cell(3); got.Text != "" {
		t.Errorf("padded cell = %q", got.Text)
	}
	if got := r.Cell(-1); got.Text != "" {
		t.Errorf("negative index cell = %q", got.Text)
	}
}

func TestStringSummary(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"t1", "3 cols", "2 header rows", "2 body rows", "Explorers"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// ColumnText returns the body text of column c, one entry per body row.
func (t *Table) ColumnText(c int) []string {
	out := make([]string, len(t.BodyRows))
	for i := range t.BodyRows {
		out[i] = t.Body(i, c)
	}
	return out
}
