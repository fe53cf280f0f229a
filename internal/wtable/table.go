// Package wtable defines the web-table data model shared by the extractor,
// the index, the column mapper and the consolidator: tables with title,
// header and body rows, per-cell formatting signals, and scored context
// snippets harvested from the surrounding document.
package wtable

import (
	"fmt"
	"strings"
)

// Cell is one table cell: its text and the formatting markers of §2.1.1
// that outlive extraction (24 bytes). The layout cues the header detector
// also reads — a row's background colour and CSS class — are per-row
// facts of the source HTML, so extraction keeps them beside its raw rows
// (extract.rowCue) and they never reach a Cell.
type Cell struct {
	Text      string
	Bold      bool
	Italic    bool
	Underline bool
	IsTH      bool // used the designated <th> tag
}

// IsEmpty reports whether the cell holds no visible text.
func (c Cell) IsEmpty() bool { return strings.TrimSpace(c.Text) == "" }

// Row is one table row.
type Row struct {
	Cells []Cell
}

// Cell returns the i-th cell, or an empty cell when the row is ragged.
func (r Row) Cell(i int) Cell {
	if i < 0 || i >= len(r.Cells) {
		return Cell{}
	}
	return r.Cells[i]
}

// Snippet is a context fragment extracted from around the table in its
// parent document, with the relevance score assigned by the extractor
// (§2.1.2).
type Snippet struct {
	Text  string
	Score float64
}

// Table is one extracted web table.
type Table struct {
	ID        string // stable unique id within a corpus
	URL       string // source page
	PageTitle string

	TitleRows  []Row // rows classified as table titles
	HeaderRows []Row // rows classified as headers (possibly none)
	BodyRows   []Row

	Context []Snippet
}

// NumCols returns the column count: the maximum cell count over header and
// body rows. Ragged rows are padded with empty cells by Cell accessors.
func (t *Table) NumCols() int {
	n := 0
	for _, r := range t.HeaderRows {
		if len(r.Cells) > n {
			n = len(r.Cells)
		}
	}
	for _, r := range t.BodyRows {
		if len(r.Cells) > n {
			n = len(r.Cells)
		}
	}
	return n
}

// NumHeaderRows returns the number of header rows.
func (t *Table) NumHeaderRows() int { return len(t.HeaderRows) }

// NumBodyRows returns the number of body rows.
func (t *Table) NumBodyRows() int { return len(t.BodyRows) }

// Header returns the text of header row r, column c ("" when absent).
func (t *Table) Header(r, c int) string {
	if r < 0 || r >= len(t.HeaderRows) {
		return ""
	}
	return strings.TrimSpace(t.HeaderRows[r].Cell(c).Text)
}

// Body returns the text of body row r, column c ("" when absent).
func (t *Table) Body(r, c int) string {
	if r < 0 || r >= len(t.BodyRows) {
		return ""
	}
	return strings.TrimSpace(t.BodyRows[r].Cell(c).Text)
}

// HeaderText returns all header text of column c across header rows, top to
// bottom.
func (t *Table) HeaderText(c int) []string {
	out := make([]string, 0, len(t.HeaderRows))
	for r := range t.HeaderRows {
		if h := t.Header(r, c); h != "" {
			out = append(out, h)
		}
	}
	return out
}

// TitleText returns the concatenated text of all title rows.
func (t *Table) TitleText() string {
	var parts []string
	for _, r := range t.TitleRows {
		for _, c := range r.Cells {
			if s := strings.TrimSpace(c.Text); s != "" {
				parts = append(parts, s)
			}
		}
	}
	return strings.Join(parts, " ")
}

// ContextText returns all context snippets joined (unweighted); the feature
// code consumes Context directly when it needs scores.
func (t *Table) ContextText() string {
	var parts []string
	for _, s := range t.Context {
		parts = append(parts, s.Text)
	}
	return strings.Join(parts, " ")
}

// String renders a compact human-readable summary, used by CLIs and tests.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s (%d cols, %d header rows, %d body rows)", t.ID, t.NumCols(), len(t.HeaderRows), len(t.BodyRows))
	if tt := t.TitleText(); tt != "" {
		fmt.Fprintf(&b, " title=%q", tt)
	}
	return b.String()
}

// Validate checks structural sanity: at least one body row and one column,
// and no row wider than NumCols. It returns a descriptive error otherwise.
func (t *Table) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("table missing ID")
	}
	if len(t.BodyRows) == 0 {
		return fmt.Errorf("table %s: no body rows", t.ID)
	}
	n := t.NumCols()
	if n == 0 {
		return fmt.Errorf("table %s: no columns", t.ID)
	}
	return nil
}
