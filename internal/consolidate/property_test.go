package consolidate

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wwt/internal/core"
	"wwt/internal/wtable"
)

func randAnswerWorld(r *rand.Rand) (int, []*wtable.Table, core.Labeling) {
	q := 1 + r.Intn(3)
	n := 1 + r.Intn(4)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	tables := make([]*wtable.Table, n)
	cols := make([]int, n)
	for i := range tables {
		nc := q + r.Intn(2)
		t := &wtable.Table{ID: fmt.Sprintf("t%d", i)}
		rows := 1 + r.Intn(5)
		for ri := 0; ri < rows; ri++ {
			var row wtable.Row
			for c := 0; c < nc; c++ {
				row.Cells = append(row.Cells, wtable.Cell{Text: names[r.Intn(len(names))]})
			}
			t.BodyRows = append(t.BodyRows, row)
		}
		tables[i] = t
		cols[i] = nc
	}
	l := core.NewLabeling(q, cols)
	for i := range tables {
		if r.Intn(3) == 0 {
			continue // stays irrelevant
		}
		// Assign query labels to distinct random columns, always
		// including Q1 (must-match).
		perm := r.Perm(cols[i])
		for ell := 0; ell < q && ell < len(perm); ell++ {
			l.Y[i][perm[ell]] = ell
		}
		for c := 0; c < cols[i]; c++ {
			if l.Y[i][c] == core.NR(q) {
				l.Y[i][c] = core.NA(q)
			}
		}
	}
	return q, tables, l
}

// TestConsolidateInvariantsQuick: row count bounded by input rows; every
// row has exactly q cells with a non-empty key; support bounded by the
// number of relevant tables; sources only from relevant tables.
func TestConsolidateInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, tables, l := randAnswerWorld(r)
		ans := Consolidate(q, viewsOf(tables...), l, nil, nil)
		totalRows := 0
		relevant := map[string]bool{}
		for i, tb := range tables {
			if l.Relevant(i) {
				totalRows += tb.NumBodyRows()
				relevant[tb.ID] = true
			}
		}
		if len(ans.Rows) > totalRows {
			return false
		}
		for _, row := range ans.Rows {
			if len(row.Cells) != q || row.Cells[0] == "" {
				return false
			}
			if row.Support < 1 || row.Support > len(relevant) {
				return false
			}
			for _, src := range row.Sources {
				if !relevant[src] {
					return false
				}
			}
		}
		for _, src := range ans.Sources {
			if !relevant[src] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConsolidateRankingMonotoneQuick: rows are ordered by non-increasing
// support.
func TestConsolidateRankingMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, tables, l := randAnswerWorld(r)
		ans := Consolidate(q, viewsOf(tables...), l, nil, nil)
		for i := 1; i < len(ans.Rows); i++ {
			if ans.Rows[i].Support > ans.Rows[i-1].Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConsolidateDeterministicQuick: same inputs, same output.
func TestConsolidateDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		q1, t1, l1 := randAnswerWorld(r1)
		r2 := rand.New(rand.NewSource(seed))
		q2, t2, l2 := randAnswerWorld(r2)
		a := Consolidate(q1, viewsOf(t1...), l1, nil, nil)
		b := Consolidate(q2, viewsOf(t2...), l2, nil, nil)
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			for c := range a.Rows[i].Cells {
				if a.Rows[i].Cells[c] != b.Rows[i].Cells[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
