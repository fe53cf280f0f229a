package consolidate

import (
	"testing"

	"wwt/internal/core"
	"wwt/internal/wtable"
)

func row(texts ...string) wtable.Row {
	cells := make([]wtable.Cell, len(texts))
	for i, t := range texts {
		cells[i] = wtable.Cell{Text: t}
	}
	return wtable.Row{Cells: cells}
}

// testIntern is shared by every view the tests build, as one engine's
// interner is shared by every view it analyzes.
var testIntern = core.NewInterner()

// viewsOf analyzes tables into views against testIntern: the form
// Consolidate reads a model's tables in.
func viewsOf(tables ...*wtable.Table) []*core.TableView {
	views := make([]*core.TableView, len(tables))
	for i, t := range tables {
		views[i] = core.NewTableView(t, testIntern)
	}
	return views
}

func table(id string, body [][]string) *wtable.Table {
	t := &wtable.Table{ID: id}
	for _, br := range body {
		t.BodyRows = append(t.BodyRows, row(br...))
	}
	return t
}

func TestConsolidateMergesDuplicates(t *testing.T) {
	a := table("a", [][]string{
		{"Vasco da Gama", "Portuguese", "Sea route to India"},
		{"Abel Tasman", "Dutch", "Oceania"},
	})
	// b maps columns in a different order: col0=area, col1=name.
	b := table("b", [][]string{
		{"Sea route to India", "Vasco da Gama"},
		{"Caribbean", "Christopher Columbus"},
	})
	q := 3
	l := core.Labeling{Q: q, Y: [][]int{
		{0, 1, 2}, // a: name, nationality, area
		{2, 0},    // b: area, name
	}}
	ans := Consolidate(q, viewsOf(a, b), l, nil, nil)
	if len(ans.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (Vasco merged)", len(ans.Rows))
	}
	// Vasco row must be merged: support 2, nationality filled from a.
	var vasco *Row
	for i := range ans.Rows {
		if ans.Rows[i].Cells[0] == "Vasco da Gama" {
			vasco = &ans.Rows[i]
		}
	}
	if vasco == nil {
		t.Fatal("Vasco row missing")
	}
	if vasco.Support != 2 {
		t.Errorf("Vasco support = %d, want 2", vasco.Support)
	}
	if vasco.Cells[1] != "Portuguese" {
		t.Errorf("nationality lost in merge: %v", vasco.Cells)
	}
	// Merged row ranks first.
	if ans.Rows[0].Cells[0] != "Vasco da Gama" {
		t.Errorf("highest-support row should rank first, got %v", ans.Rows[0].Cells)
	}
}

func TestConsolidateSkipsIrrelevantTables(t *testing.T) {
	a := table("a", [][]string{{"France", "Euro"}})
	junk := table("junk", [][]string{{"7", "2236"}})
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{
		{0, 1},
		{core.NR(q), core.NR(q)},
	}}
	ans := Consolidate(q, viewsOf(a, junk), l, nil, nil)
	if len(ans.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(ans.Rows))
	}
	if len(ans.Sources) != 1 || ans.Sources[0] != "a" {
		t.Errorf("sources = %v", ans.Sources)
	}
}

func TestConsolidateConflictingRowsKeptSeparate(t *testing.T) {
	a := table("a", [][]string{{"France", "Euro"}})
	b := table("b", [][]string{{"France", "Franc"}}) // conflicting value
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{{0, 1}, {0, 1}}}
	ans := Consolidate(q, viewsOf(a, b), l, nil, nil)
	if len(ans.Rows) != 2 {
		t.Fatalf("conflicting rows merged: %v", ans.Rows)
	}
}

func TestConsolidateMissingKeyColumn(t *testing.T) {
	// Table maps Q2 but not Q1: cannot anchor rows, skipped.
	a := table("a", [][]string{{"Euro", "x"}})
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{{1, core.NA(q)}}}
	ans := Consolidate(q, viewsOf(a), l, nil, nil)
	if len(ans.Rows) != 0 {
		t.Errorf("rows without key column should be dropped: %v", ans.Rows)
	}
}

func TestConsolidateEmptyKeyRowsDropped(t *testing.T) {
	a := table("a", [][]string{{"", "Euro"}, {"Japan", "Yen"}})
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{{0, 1}}}
	ans := Consolidate(q, viewsOf(a), l, nil, nil)
	if len(ans.Rows) != 1 || ans.Rows[0].Cells[0] != "Japan" {
		t.Errorf("rows = %v", ans.Rows)
	}
}

// TestConsolidateFuzzyKeyMatch: keys whose token sets differ merge at a
// Jaccard of 5/6 and stay apart at 3/4, either side of keyJaccard.
func TestConsolidateFuzzyKeyMatch(t *testing.T) {
	for _, c := range []struct {
		a, b string
		rows int
	}{
		{"Kingdom of Great Britain and Northern Ireland", "United Kingdom of Great Britain and Northern Ireland", 1},
		{"United States of America", "United States of North America", 2},
	} {
		a := table("a", [][]string{{c.a, "London"}})
		b := table("b", [][]string{{c.b, "London"}})
		l := core.Labeling{Q: 2, Y: [][]int{{0, 1}, {0, 1}}}
		if ans := Consolidate(2, viewsOf(a, b), l, nil, nil); len(ans.Rows) != c.rows {
			t.Errorf("%q and %q: %d rows, want %d", c.a, c.b, len(ans.Rows), c.rows)
		}
	}
}

func TestConsolidateSupportCountsTablesNotRows(t *testing.T) {
	// The same table repeating a row must not inflate support.
	a := table("a", [][]string{{"France", "Euro"}, {"France", "Euro"}})
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{{0, 1}}}
	ans := Consolidate(q, viewsOf(a), l, nil, nil)
	if len(ans.Rows) != 1 {
		t.Fatalf("rows = %d", len(ans.Rows))
	}
	if ans.Rows[0].Support != 1 {
		t.Errorf("support = %d, want 1 (same source)", ans.Rows[0].Support)
	}
}

func TestRankingPrefersRelevanceOnTie(t *testing.T) {
	a := table("a", [][]string{{"x", "1"}})
	b := table("b", [][]string{{"y", "2"}})
	q := 2
	l := core.Labeling{Q: q, Y: [][]int{{0, 1}, {0, 1}}}
	ans := Consolidate(q, viewsOf(a, b), l, []float64{0.2, 0.9}, nil)
	if len(ans.Rows) != 2 || ans.Rows[0].Cells[0] != "y" {
		t.Errorf("higher-relevance source should rank first: %v", ans.Rows)
	}
}

// TestSourcesExactSize: every row's Sources lists its tables in merge
// order at exactly its support, and is capped so that an append to one
// row's list can never write into another's.
func TestSourcesExactSize(t *testing.T) {
	a := table("a", [][]string{{"Oslo", "Norway"}, {"Lima", "Peru"}})
	b := table("b", [][]string{{"Oslo", "Norway"}, {"Quito", "Ecuador"}})
	c := table("c", [][]string{{"Lima", "Peru"}, {"Oslo", "Norway"}})
	l := core.Labeling{Q: 2, Y: [][]int{{0, 1}, {0, 1}, {0, 1}}}
	ans := Consolidate(2, viewsOf(a, b, c), l, nil, &Scratch{})
	want := map[string][]string{"Oslo": {"a", "b", "c"}, "Lima": {"a", "c"}, "Quito": {"b"}}
	if len(ans.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(ans.Rows), len(want))
	}
	for _, r := range ans.Rows {
		w := want[r.Cells[0]]
		if len(r.Sources) != len(w) || r.Support != len(w) || cap(r.Sources) != len(r.Sources) {
			t.Fatalf("row %q: sources %v (cap %d), support %d, want %v", r.Cells[0], r.Sources, cap(r.Sources), r.Support, w)
		}
		for i := range w {
			if r.Sources[i] != w[i] {
				t.Fatalf("row %q: sources %v, want %v", r.Cells[0], r.Sources, w)
			}
		}
	}
	before := make([][]string, len(ans.Rows))
	for i, r := range ans.Rows {
		before[i] = append([]string(nil), r.Sources...)
	}
	_ = append(ans.Rows[0].Sources, "x")
	for i, r := range ans.Rows {
		for j := range r.Sources {
			if r.Sources[j] != before[i][j] {
				t.Fatalf("an append to row 0's sources changed row %d: %v", i, r.Sources)
			}
		}
	}
}
