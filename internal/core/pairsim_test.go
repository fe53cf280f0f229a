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
// matched flags) and final Edges. It draws 2–8 tables whose cells come
// from a small alphabet, so cells repeat heavily; a column may be empty or
// hold a cell that every such column holds. The threshold is 0, 0.1, 0.5
// or 1. Each draw is built fresh and then again, reversed and forward,
// through the scratch the first build left dirty.
func FuzzSharedCellCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 2, 3, 0, 1, 2, 3, 4, 5, 0, 3, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 1, 6, 3, 5, 3, 2, 1, 0, 9, 9, 9, 1, 2, 4, 4, 0, 3, 3, 1, 1, 2, 2, 5, 5, 0, 0})
	f.Add([]byte{2, 3, 4, 1, 1, 3, 3, 3, 3, 2, 5, 0, 0, 0, 0, 0, 0, 1, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		p := DefaultParams()
		p.MinNeighborSim = []float64{0, 0.1, 0.5, 1}[src.next(4)]
		if src.next(4) == 3 {
			p.Edges = EdgePotts
		}
		tables := make([]*wtable.Table, 2+src.next(7))
		for i := range tables {
			cols, rows := 1+src.next(4), src.next(6)
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
		checkEdgesEquiv(t, b.BuildWith(cols, tables, &s), "fresh")
		rev := slices.Clone(tables)
		slices.Reverse(rev)
		checkEdgesEquiv(t, b.BuildWith(cols, rev, &s), "reversed")
		checkEdgesEquiv(t, b.BuildWith(cols, tables, &s), "dirty scratch")
	})
}

// TestBuildRawEdgesWarmAllocs pins the edge pass's arena: a second pass
// over the same views through the same scratch — the entry list, its
// sort, the count buffer, the survivors' arena, the denominators and the raw
// edges — allocates nothing.
func TestBuildRawEdgesWarmAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tables := make([]*wtable.Table, 8)
	for i := range tables {
		tables[i] = randTable(r)
		tables[i].ID = fmt.Sprintf("t%d", i)
	}
	p := DefaultParams()
	p.MinNeighborSim = 0 // every column pair survives
	b := &Builder{Params: p, Stats: constStats{}, Views: NewViewCache()}
	var s BuildScratch
	m := b.BuildWith([]string{"country", "currency"}, tables, &s)
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
	m := b.BuildWith([]string{"country", "currency"}, tables, &s)
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
