package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wwt/internal/wtable"
)

// FuzzSharedCellCounts checks the edge pass, which reads every column
// pair's overlap from one shared-cell count per pass, against the
// per-pair merge reference: raw edges (order, endpoints, similarity bits,
// matched flags) and final Edges. It draws 2–8 tables of 1–10 columns
// whose cells come from a small alphabet, so cells repeat heavily; a
// column may be empty or hold a cell that every such column holds, so a
// table pair with disjoint survivors also takes the solve when it has more
// survivors than the kernel's mask. Each draw is built fresh and then
// again, reversed and forward, through the scratch the first build left
// dirty.
func FuzzSharedCellCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 2, 3, 0, 1, 2, 3, 4, 5, 0, 3, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 1, 6, 3, 5, 3, 2, 1, 0, 9, 9, 9, 1, 2, 4, 4, 0, 3, 3, 1, 1, 2, 2, 5, 5, 0, 0})
	f.Add([]byte{2, 3, 4, 1, 1, 3, 3, 3, 3, 2, 5, 0, 0, 0, 0, 0, 0, 1, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		p := DefaultParams()
		if src.next(4) == 3 {
			p.Edges = EdgePotts
		}
		tables := make([]*wtable.Table, 2+src.next(7))
		for i := range tables {
			cols, rows := 1+src.next(10), src.next(6)
			hdr := make([]string, cols)
			body := make([][]string, rows)
			for r := range body {
				body[r] = make([]string, cols)
			}
			for c := range hdr {
				hdr[c] = fuzzVocab[src.next(len(fuzzVocab))]
				kind := src.next(4)
				if kind == 3 {
					continue // an empty column
				}
				for r := range body {
					if r == 0 && kind%2 == 0 {
						body[r][c] = "every"
					} else {
						body[r][c] = fuzzVocab[src.next(len(fuzzVocab))]
					}
				}
			}
			tables[i] = table(fmt.Sprintf("t%d", i), [][]string{hdr}, body, "")
		}
		b := &Builder{Params: p, Stats: constStats{}, Views: NewViewCache()}
		cols := []string{"aa", "bb"}
		var s BuildScratch
		checkEdgesEquiv(t, buildIn(b, cols, tables, &s), "fresh")
		rev := slices.Clone(tables)
		slices.Reverse(rev)
		checkEdgesEquiv(t, buildIn(b, cols, rev, &s), "reversed")
		checkEdgesEquiv(t, buildIn(b, cols, tables, &s), "dirty scratch")
	})
}

// TestBuildRawEdgesWarmAllocs pins the edge pass's arena: a second pass
// over the same views through the same scratch — the entry list, its
// sort, the count rows, the raw edges, the matching cells and the
// denominators — allocates nothing.
func TestBuildRawEdgesWarmAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tables := make([]*wtable.Table, 8)
	for i := range tables {
		tables[i] = randTable(r)
		tables[i].ID = fmt.Sprintf("t%d", i)
	}
	b := &Builder{Params: DefaultParams(), Stats: constStats{}, Views: NewViewCache()}
	var s BuildScratch
	m := buildIn(b, []string{"country", "currency"}, tables, &s)
	allocs := testing.AllocsPerRun(100, func() { m.buildRawEdges(&s) })
	if allocs != 0 {
		t.Errorf("warm edge pass allocates %.0f/op, want 0", allocs)
	}
	if len(m.rawEdges) == 0 {
		t.Fatal("no raw edges: the pass did no work")
	}
	checkEdgesEquiv(t, m, "after warm passes")
}

// TestBuildRawEdgesWideTable pins the count buffer's memory bound on a
// shape /v1/ingest's 8 MiB body allows: one 512-column table among 40
// four-column tables. The buffer holds exactly Σ n₁·n₂ over cross-table
// pairs — never (total columns)² — and the edges equal the reference's.
func TestBuildRawEdgesWideTable(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	mk := func(id string, cols int) *wtable.Table {
		hdr := make([]string, cols)
		body := make([][]string, 6)
		for c := range hdr {
			hdr[c] = phraseFrom(r, 1)
		}
		for i := range body {
			body[i] = make([]string, cols)
			for c := range body[i] {
				body[i][c] = phraseFrom(r, 1)
			}
		}
		return table(id, [][]string{hdr}, body, "")
	}
	var tables []*wtable.Table
	for i := 0; i < 40; i++ {
		tables = append(tables, mk(fmt.Sprintf("n%d", i), 4))
	}
	tables = slices.Insert(tables, 17, mk("wide", 512))

	b := &Builder{Params: DefaultParams(), Stats: constStats{}, Views: NewViewCache()}
	var s BuildScratch
	m := buildIn(b, []string{"country", "currency"}, tables, &s)
	checkEdgesEquiv(t, m, "wide")
	want := 0
	for i, v := range m.Views {
		for _, w := range m.Views[i+1:] {
			want += v.NumCols * w.NumCols
		}
	}
	if want != 512*160+40*39/2*16 {
		t.Fatalf("Σ n₁·n₂ = %d: the fixture is not the shape this test pins", want)
	}
	if len(s.counts) != want {
		t.Errorf("count buffer holds %d entries, want Σ n₁·n₂ = %d (total columns² = %d)",
			len(s.counts), want, s.colOff[len(m.Views)]*s.colOff[len(m.Views)])
	}
}

// sortedSharedCounts is the sort-based shared-cell count the grouping
// table replaced, kept as its oracle: one cellID<<32 | global column
// entry per body cell, sorted and compacted so each column's distinct
// cells appear once, each run of equal IDs one cell, counted once for
// every cross-table column pair in the run. It returns the per-column
// distinct cells and the count rows in BuildScratch's layout, reading
// rowOff and colEnd from s.
func sortedSharedCounts(m *Model, s *BuildScratch) (colCells, counts []int32) {
	var cells []uint64
	for t, v := range m.Views {
		for c := 0; c < v.NumCols; c++ {
			g := s.colOff[t] + c
			for i := c; i < len(v.cells); i += v.NumCols {
				if id := v.cells[i]; id != NoID {
					cells = append(cells, uint64(id)<<32|uint64(g))
				}
			}
		}
	}
	slices.Sort(cells)
	cells = slices.Compact(cells)
	colCells = make([]int32, s.colOff[len(m.Views)])
	for _, e := range cells {
		colCells[uint32(e)]++
	}
	counts = make([]int32, len(s.counts))
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j]>>32 == cells[i]>>32 {
			j++
		}
		for a := i; a < j-1; a++ {
			ga := uint32(cells[a])
			for _, e := range cells[a+1 : j] {
				if gb := int(uint32(e)); gb >= s.colEnd[ga] {
					counts[s.rowOff[ga]+gb]++
				}
			}
		}
		i = j
	}
	return colCells, counts
}

// cellsView is a view holding only body cells, given column by column.
func cellsView(cols ...[]uint32) *TableView {
	v := &TableView{NumCols: len(cols)}
	for r := range cols[0] {
		for _, col := range cols {
			v.cells = append(v.cells, col[r])
		}
	}
	return v
}

// TestSharedCellGroupingCollisions pins the edge pass's grouping table on
// cell IDs that all hash to the table's last slot, so every lookup walks
// one probe chain that wraps to slot 0; a cell repeated within a column;
// an empty column; and a cell shared by all four tables. The distinct
// cells per column and the count rows must equal the sort-based count's,
// with the views in order and reversed through one dirty scratch.
func TestSharedCellGroupingCollisions(t *testing.T) {
	const rows, cols = 4, 8
	bits := groupBits(rows * cols)
	last := uint32(1)<<bits - 1
	var ids []uint32
	for id := uint32(0); len(ids) < 6; id++ {
		if cellHash(id, bits) == last {
			ids = append(ids, id)
		}
	}
	a, b, c, d, e, f := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	views := []*TableView{
		cellsView([]uint32{a, a, b, NoID}, []uint32{c, a, NoID, c}, []uint32{d, d, d, d}),
		cellsView([]uint32{a, b, e, a}, []uint32{d, c, NoID, NoID}),
		cellsView([]uint32{a, e, f, f}, []uint32{NoID, NoID, NoID, NoID}),
		cellsView([]uint32{a, d, b, c}),
	}
	var s BuildScratch
	for _, order := range []string{"forward", "reversed"} {
		m := &Model{Views: views}
		s.colOff = append(s.colOff[:0], 0)
		for _, v := range views {
			s.colOff = append(s.colOff, s.colOff[len(s.colOff)-1]+v.NumCols)
		}
		if s.colOff[len(views)] != cols {
			t.Fatalf("%d columns, want %d", s.colOff[len(views)], cols)
		}
		m.countSharedCells(&s)
		if len(s.slots) != 1<<bits {
			t.Fatalf("%s: %d slots, want %d", order, len(s.slots), 1<<bits)
		}
		wantCells, wantCounts := sortedSharedCounts(m, &s)
		if !slices.Equal(s.colCells, wantCells) {
			t.Errorf("%s: colCells %v, sorted count %v", order, s.colCells, wantCells)
		}
		if !slices.Equal(s.counts, wantCounts) {
			t.Errorf("%s: counts %v, sorted count %v", order, s.counts, wantCounts)
		}
		if order == "forward" && (wantCells[0] != 2 || wantCells[2] != 1 || wantCells[6] != 0) {
			t.Fatalf("distinct cells %v: the fixture lost its repeats or its empty column", wantCells)
		}
		views = slices.Clone(views)
		slices.Reverse(views)
	}
}
