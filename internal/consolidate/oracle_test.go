package consolidate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"wwt/internal/core"
	"wwt/internal/text"
	"wwt/internal/wtable"
)

// consolidateRef is the reference consolidator: the implementation as it
// stood before cell analyses were memoized. Every row normalizes its key
// from scratch, compatibility re-normalizes both sides of every merge
// attempt, token-set similarity goes through text.JaccardTokens, and rows
// are ranked with sort.SliceStable. Consolidate, which matches cells on
// the views' interned IDs instead, is pinned to it row for row.
func consolidateRef(q int, tables []*wtable.Table, l core.Labeling, relevance []float64) *Answer {
	type keyedRef struct {
		keyTokens []string
		row       int
	}
	ans := &Answer{NumCols: q}
	exact := make(map[string]int)
	var fuzzy []keyedRef
	colFor := make([]int, q)
	for ti, tb := range tables {
		if ti >= len(l.Y) || !l.Relevant(ti) {
			continue
		}
		for ell := 0; ell < q; ell++ {
			colFor[ell] = l.ColumnOf(ti, ell)
		}
		if colFor[0] < 0 {
			continue
		}
		ans.Sources = append(ans.Sources, tb.ID)
		rel := 1.0
		if relevance != nil && ti < len(relevance) {
			rel = relevance[ti]
		}
		for r := 0; r < tb.NumBodyRows(); r++ {
			key := strings.TrimSpace(tb.Body(r, colFor[0]))
			if key == "" {
				continue
			}
			cells := make([]string, q)
			for ell := 0; ell < q; ell++ {
				if colFor[ell] >= 0 {
					cells[ell] = strings.TrimSpace(tb.Body(r, colFor[ell]))
				}
			}
			keyToks := text.Normalize(key)
			norm := strings.Join(keyToks, " ")
			if norm == "" {
				continue
			}
			target := -1
			if idx, ok := exact[norm]; ok {
				target = idx
			} else {
				for _, kr := range fuzzy {
					if text.JaccardTokens(keyToks, kr.keyTokens) >= keyJaccard {
						target = kr.row
						break
					}
				}
			}
			if target >= 0 && compatibleRef(ans.Rows[target].Cells, cells) {
				mergeRef(&ans.Rows[target], cells, tb.ID, rel)
			} else {
				ans.Rows = append(ans.Rows, Row{Cells: cells, Support: 1, Sources: []string{tb.ID}, Score: rel})
				idx := len(ans.Rows) - 1
				exact[norm] = idx
				fuzzy = append(fuzzy, keyedRef{keyTokens: keyToks, row: idx})
			}
		}
	}
	rankRowsRef(ans)
	return ans
}

func compatibleRef(a, b []string) bool {
	for i := range a {
		if a[i] == "" || b[i] == "" {
			continue
		}
		ta, tb := text.Normalize(a[i]), text.Normalize(b[i])
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		if text.JaccardTokens(ta, tb) < 0.5 {
			return false
		}
	}
	return true
}

func mergeRef(row *Row, cells []string, source string, rel float64) {
	for i, c := range cells {
		if row.Cells[i] == "" {
			row.Cells[i] = c
		}
	}
	for _, s := range row.Sources {
		if s == source {
			return
		}
	}
	row.Sources = append(row.Sources, source)
	row.Support++
	row.Score += rel
}

func rankRowsRef(ans *Answer) {
	filled := func(r Row) int {
		n := 0
		for _, c := range r.Cells {
			if c != "" {
				n++
			}
		}
		return n
	}
	sort.SliceStable(ans.Rows, func(i, j int) bool {
		a, b := ans.Rows[i], ans.Rows[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if fa, fb := filled(a), filled(b); fa != fb {
			return fa > fb
		}
		return a.Cells[0] < b.Cells[0]
	})
}

// oracleCells are the cell texts of the oracle worlds: plain and
// multi-token entities, word-order and case variants, stemming variants,
// duplicate tokens, stopword-only, punctuation-only, padded and empty
// cells — every way two strings can normalize alike or to nothing.
var oracleCells = []string{
	"alpha", "Alpha", " alpha ", "alpha beta", "beta alpha", "alpha alpha",
	"alpha alpha beta", "alpha beta gamma", "gamma", "gammas", "running",
	"runs", "run", "delta epsilon", "Delta, Epsilon!", "the", "the of",
	"of a", "--", "", "  ", "42", "42 alpha",
}

// randOracleWorld draws q, candidate tables, a labeling (sometimes shorter
// than the table list) and per-table relevance (nil or drawn from a few
// values so score ties exercise the stable ranking).
func randOracleWorld(r *rand.Rand) (int, []*wtable.Table, core.Labeling, []float64) {
	q := 1 + r.Intn(3)
	n := 1 + r.Intn(6)
	tables := make([]*wtable.Table, n)
	cols := make([]int, n)
	for i := range tables {
		nc := q + r.Intn(2)
		t := &wtable.Table{ID: fmt.Sprintf("t%d", i%4)} // repeated IDs: one source, many tables
		for ri := 0; ri < 1+r.Intn(6); ri++ {
			var row wtable.Row
			for c := 0; c < nc; c++ {
				row.Cells = append(row.Cells, wtable.Cell{Text: oracleCells[r.Intn(len(oracleCells))]})
			}
			t.BodyRows = append(t.BodyRows, row)
		}
		tables[i] = t
		cols[i] = nc
	}
	labeled := n
	if r.Intn(5) == 0 {
		labeled = n - 1
	}
	l := core.NewLabeling(q, cols[:labeled])
	for i := 0; i < labeled; i++ {
		if r.Intn(4) == 0 {
			continue // stays irrelevant
		}
		perm := r.Perm(cols[i])
		for c := range l.Y[i] {
			l.Y[i][c] = core.NA(q)
		}
		for ell := 0; ell < q; ell++ {
			if ell > 0 && r.Intn(4) == 0 {
				continue // query column left unmapped
			}
			if ell == 0 && r.Intn(8) == 0 {
				continue // no key column: the table cannot anchor rows
			}
			l.Y[i][perm[ell]] = ell
		}
	}
	var rel []float64
	if r.Intn(2) == 0 {
		rel = make([]float64, n-r.Intn(2))
		for i := range rel {
			rel[i] = []float64{0.25, 0.5, 1}[r.Intn(3)]
		}
	}
	return q, tables, l, rel
}

// TestConsolidateMatchesOracleQuick compares Consolidate — through one
// scratch reused across every case and through a fresh one — with the
// reference consolidator: same rows in the same order, with the same
// cells, support, sources and scores, and the same source list.
func TestConsolidateMatchesOracleQuick(t *testing.T) {
	var reused Scratch
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, tables, l, rel := randOracleWorld(r)
		want := consolidateRef(q, tables, l, rel)
		views := viewsOf(tables...)
		for _, s := range []*Scratch{&reused, nil} {
			if got := Consolidate(q, views, l, rel, s); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d: got %+v\nwant %+v", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestConsolidateRepeatedSourceIDs merges five relevant tables with IDs
// t0 t1 t3 t0 t1 that all hold the key "alpha", so it merges into one row.
// Its support counts the three distinct IDs; a check of only a row's last
// source counts the second t0 and t1 again, for 5. The "beta" row, which
// only both t0 tables hold, has support 1.
func TestConsolidateRepeatedSourceIDs(t *testing.T) {
	var tables []*wtable.Table
	for _, id := range []string{"t0", "t1", "t3", "t0", "t1"} {
		body := [][]string{{"alpha", "x"}}
		if id == "t0" {
			body = append(body, []string{"beta", "y"})
		}
		tables = append(tables, table(id, body))
	}
	l := core.NewLabeling(2, []int{2, 2, 2, 2, 2})
	for i := range l.Y {
		l.Y[i][0], l.Y[i][1] = 0, 1
	}
	want := consolidateRef(2, tables, l, nil)
	if len(want.Rows) != 2 {
		t.Fatalf("oracle has %d rows, want alpha and beta", len(want.Rows))
	}
	if top := want.Rows[0]; top.Support != 3 || !reflect.DeepEqual(top.Sources, []string{"t0", "t1", "t3"}) {
		t.Fatalf("oracle's top row %+v, want support 3 from t0 t1 t3", top)
	}
	if r := want.Rows[1]; r.Support != 1 || !reflect.DeepEqual(r.Sources, []string{"t0"}) {
		t.Fatalf("oracle's second row %+v, want support 1 from t0", r)
	}
	var reused Scratch
	for _, s := range []*Scratch{nil, &reused, &reused} {
		if got := Consolidate(2, viewsOf(tables...), l, nil, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v\nwant %+v", got, want)
		}
	}
}

// FuzzConsolidateOracle checks Consolidate, which matches cells on the
// views' interned IDs, against consolidateRef, which analyzes their
// strings. seed draws a world the way TestConsolidateMatchesOracleQuick
// does; cells, split on "|", replaces about half of its cells with
// arbitrary text, so the fuzzer reaches analyses (Unicode letters and
// case, digits, stemming, stray bytes) the fixed cell list does not.
// Every input's views go through testIntern, one interner shared by all
// of them, and each world runs through a fresh scratch and through one
// reused across inputs.
func FuzzConsolidateOracle(f *testing.F) {
	f.Add(int64(1), "")
	f.Add(int64(7), "Straße|STRASSE|İstanbul|istanbul|42nd|running runner")
	f.Add(int64(2012), "a|the a|  |x y x|y x|Y-X")
	f.Add(int64(2101127179483521383), "") // sources t0 t1 t3 t0 t1
	var reused Scratch
	f.Fuzz(func(t *testing.T, seed int64, cells string) {
		r := rand.New(rand.NewSource(seed))
		q, tables, l, rel := randOracleWorld(r)
		if cells != "" {
			texts := strings.Split(cells, "|")
			for _, tb := range tables {
				for _, row := range tb.BodyRows {
					for c := range row.Cells {
						if r.Intn(2) == 0 {
							row.Cells[c].Text = texts[r.Intn(len(texts))]
						}
					}
				}
			}
		}
		want := consolidateRef(q, tables, l, rel)
		views := viewsOf(tables...)
		for _, s := range []*Scratch{nil, &reused} {
			if got := Consolidate(q, views, l, rel, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		}
	})
}
