package index

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wwt/internal/text"
	"wwt/internal/wtable"
)

func mkTable(id string, headers []string, rows [][]string, context string) *wtable.Table {
	t := &wtable.Table{ID: id, URL: "http://" + id}
	if headers != nil {
		var hr wtable.Row
		for _, h := range headers {
			hr.Cells = append(hr.Cells, wtable.Cell{Text: h, IsTH: true})
		}
		t.HeaderRows = []wtable.Row{hr}
	}
	for _, r := range rows {
		var br wtable.Row
		for _, c := range r {
			br.Cells = append(br.Cells, wtable.Cell{Text: c})
		}
		t.BodyRows = append(t.BodyRows, br)
	}
	if context != "" {
		t.Context = []wtable.Snippet{{Text: context, Score: 1}}
	}
	return t
}

func corpus(t *testing.T) *Index {
	t.Helper()
	tables := []*wtable.Table{
		mkTable("t1", []string{"Country", "Currency"},
			[][]string{{"France", "Euro"}, {"Japan", "Yen"}}, "currencies of the world"),
		mkTable("t2", []string{"Country", "Population"},
			[][]string{{"France", "67 million"}, {"India", "1.4 billion"}}, "world population data"),
		mkTable("t3", []string{"Name", "Height"},
			[][]string{{"Denali", "6190"}, {"Logan", "5959"}}, "north american mountains"),
		mkTable("t4", nil,
			[][]string{{"France", "Euro"}, {"India", "Rupee"}}, ""),
	}
	ix, err := Build(tables)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestSearchRanking(t *testing.T) {
	ix := corpus(t)
	hits := ix.Search(text.Normalize("country currency"), 0)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].ID != "t1" {
		t.Errorf("top hit = %s, want t1 (hits=%v)", hits[0].ID, hits)
	}
	// t2 matches "country" in its header, must beat t4 which has no header.
	pos := map[string]int{}
	for i, h := range hits {
		pos[h.ID] = i
	}
	if p2, ok := pos["t2"]; !ok {
		t.Error("t2 not retrieved")
	} else if p4, ok := pos["t4"]; ok && p4 < p2 {
		t.Errorf("headerless t4 outranked header match t2: %v", hits)
	}
}

func TestSearchTopK(t *testing.T) {
	ix := corpus(t)
	hits := ix.Search(text.Normalize("france"), 1)
	if len(hits) != 1 {
		t.Errorf("k=1 returned %d hits", len(hits))
	}
	if got := ix.Search(nil, 5); got != nil {
		t.Errorf("empty query should return nil, got %v", got)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := corpus(t)
	a := ix.Search(text.Normalize("france euro"), 0)
	b := ix.Search(text.Normalize("france euro"), 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("search not deterministic")
	}
}

func TestHeaderBoostDominates(t *testing.T) {
	// Same token in header (t1 "currency") vs only in context (tc).
	tables := []*wtable.Table{
		mkTable("hdr", []string{"Currency"}, [][]string{{"Euro"}, {"Yen"}}, ""),
		mkTable("ctx", []string{"Thing"}, [][]string{{"Euro"}, {"Yen"}}, "currency currency"),
	}
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(text.Normalize("currency"), 0)
	if len(hits) != 2 || hits[0].ID != "hdr" {
		t.Errorf("header match should outrank context match: %v", hits)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	ix := New()
	a := mkTable("dup", nil, [][]string{{"x"}}, "")
	if err := ix.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(a); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestIDFOrdering(t *testing.T) {
	ix := corpus(t)
	franc := text.Normalize("france")[0]
	denali := text.Normalize("denali")[0]
	if ix.IDF(franc) >= ix.IDF(denali) {
		t.Errorf("IDF(france)=%f should be < IDF(denali)=%f", ix.IDF(franc), ix.IDF(denali))
	}
}

func TestDocSetIntersection(t *testing.T) {
	ix := corpus(t)
	toks := text.Normalize("country")
	set := ix.DocSet(toks, FieldHeader, FieldContext)
	if len(set) != 2 {
		t.Fatalf("H(country) = %d docs, want 2", len(set))
	}
	// france appears in content of t1, t2, t4.
	franceSet := ix.DocSet(text.Normalize("france"), FieldContent)
	if len(franceSet) != 3 {
		t.Fatalf("B(france) = %d docs, want 3", len(franceSet))
	}
	if n := IntersectSize(set, franceSet); n != 2 {
		t.Errorf("|H ∩ B| = %d, want 2", n)
	}
	// Multi-token DocSet requires all tokens.
	both := ix.DocSet(text.Normalize("france japan"), FieldContent)
	if len(both) != 1 {
		t.Errorf("DocSet(france AND japan) = %d docs, want 1", len(both))
	}
}

func TestDocSetEmptyToken(t *testing.T) {
	ix := corpus(t)
	if set := ix.DocSet(nil, FieldContent); set != nil {
		t.Errorf("empty DocSet = %v", set)
	}
	if set := ix.DocSet([]string{"zzzznotfound"}, FieldContent); len(set) != 0 {
		t.Errorf("unknown token DocSet = %v", set)
	}
}

// IntersectSize returns |a ∩ b| for two sorted doc sets.
func IntersectSize(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func TestIntersectSize(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{}, []int32{1}, 0},
		{[]int32{1, 5, 9}, []int32{2, 6, 10}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := IntersectSize(c.a, c.b); got != c.want {
			t.Errorf("IntersectSize(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := ReadTables(t.TempDir()); err == nil {
		t.Error("reading a directory without a store should fail")
	}
}

// TestIDlessTableRejected: Build — and so WriteDir, which every writer of
// an index directory goes through — refuses a nil table and an empty ID
// without writing anything.
func TestIDlessTableRejected(t *testing.T) {
	for name, tables := range map[string][]*wtable.Table{
		"nil table": {mkTable("a", nil, [][]string{{"x"}}, ""), nil},
		"empty ID":  {mkTable("", nil, [][]string{{"x"}}, "")},
	} {
		if _, err := Build(tables); err == nil || !strings.Contains(err.Error(), "table without ID") {
			t.Errorf("%s: Build err = %v, want table without ID", name, err)
		}
		dir := filepath.Join(t.TempDir(), "idx")
		if err := WriteDir(dir, tables, 1); err == nil || !strings.Contains(err.Error(), "table without ID") {
			t.Errorf("%s: WriteDir err = %v, want table without ID", name, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: failed WriteDir created %s (stat err %v)", name, dir, err)
		}
	}
}

// TestStoreRoundTrip: ReadTables returns what WriteDir wrote, and the
// store lists the tables in the doc table's order. Every field a table
// carries — title, header and body rows, ragged and empty rows, each
// style flag, context snippets and their score bits — comes back as
// written.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tb := mkTable("s1", []string{"A"}, [][]string{{"x"}}, "ctx")
	if err := WriteDir(dir, []*wtable.Table{tb, tb}, 1); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := WriteDir(dir, []*wtable.Table{tb}, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "s1" {
		t.Fatalf("read back %d tables", len(got))
	}
	if got[0].Header(0, 0) != "A" || got[0].Body(0, 0) != "x" {
		t.Error("table content lost in round trip")
	}
	s, _, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 || s.IDOf(0) != "s1" {
		t.Errorf("flat index holds %d docs, doc 0 = %q", s.Len(), s.IDOf(0))
	}

	tables := randStoreTables(rand.New(rand.NewSource(5)), 60)
	dir = t.TempDir()
	if err := WriteDir(dir, tables, 2); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadTables(dir); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tables) {
		t.Fatalf("read back %d of %d tables", len(got), len(tables))
	}
	for i := range tables {
		if !reflect.DeepEqual(got[i], tables[i]) {
			t.Fatalf("table %d read back as\n%+v\nwant\n%+v", i, got[i], tables[i])
		}
	}
}

func TestStoreOrderPreserved(t *testing.T) {
	dir := t.TempDir()
	var tables []*wtable.Table
	for _, id := range []string{"c", "a", "b"} {
		tables = append(tables, mkTable(id, nil, [][]string{{"x"}}, ""))
	}
	if err := WriteDir(dir, tables, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range got {
		ids = append(ids, tb.ID)
	}
	if !reflect.DeepEqual(ids, []string{"c", "a", "b"}) {
		t.Errorf("order = %v", ids)
	}
}
