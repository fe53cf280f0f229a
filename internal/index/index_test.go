package index

import (
	"path/filepath"
	"reflect"
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
	if _, err := LoadStore(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	tb := mkTable("s1", []string{"A"}, [][]string{{"x"}}, "ctx")
	if err := s.Add(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(tb); err == nil {
		t.Error("duplicate store add accepted")
	}
	if got, ok := s.Get("s1"); !ok || got.ID != "s1" {
		t.Error("Get failed")
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("phantom table")
	}
	p := filepath.Join(t.TempDir(), "store.gob")
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("loaded store len = %d", s2.Len())
	}
	got, _ := s2.Get("s1")
	if got.Header(0, 0) != "A" || got.Body(0, 0) != "x" {
		t.Error("table content lost in round trip")
	}
}

func TestStoreOrderPreserved(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"c", "a", "b"} {
		if err := s.Add(mkTable(id, nil, [][]string{{"x"}}, "")); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, tb := range s.All() {
		ids = append(ids, tb.ID)
	}
	if !reflect.DeepEqual(ids, []string{"c", "a", "b"}) {
		t.Errorf("order = %v", ids)
	}
}

// TestStoreWith: With returns a new store holding the old tables (same
// pointers, same order) followed by the added ones, leaves the source
// untouched, and rejects an ID already stored or repeated in the batch.
func TestStoreWith(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"c", "a"} {
		if err := s.Add(mkTable(id, nil, [][]string{{"x"}}, "")); err != nil {
			t.Fatal(err)
		}
	}
	b := mkTable("b", nil, [][]string{{"y"}}, "")
	s2, err := s.With([]*wtable.Table{b})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range s2.All() {
		ids = append(ids, tb.ID)
	}
	if !reflect.DeepEqual(ids, []string{"c", "a", "b"}) {
		t.Errorf("order = %v", ids)
	}
	if old, _ := s.Get("c"); old != s2.All()[0] {
		t.Error("With copied a table instead of sharing its pointer")
	}
	if _, ok := s.Get("b"); ok || s.Len() != 2 {
		t.Error("With modified its source store")
	}
	if _, err := s.With([]*wtable.Table{mkTable("a", nil, nil, "")}); err == nil {
		t.Error("With accepted an ID already stored")
	}
	if _, err := s.With([]*wtable.Table{b, b}); err == nil {
		t.Error("With accepted an ID repeated in the batch")
	}
}
