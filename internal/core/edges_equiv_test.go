package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wwt/internal/graph"
	"wwt/internal/wtable"
)

// buildRawEdgesRef is a faithful port of the map-based buildRawEdges (the
// §3.3 edge construction before the flat-array rewrite): per-query
// Jaccard grid over all cross-table column pairs, map denominators, and a
// one-one max-matching per table pair marked through an edge-index map.
// The new path is pinned hit-for-hit against it.
func buildRawEdgesRef(m *Model) []rawEdge {
	type columnRef struct{ t, c int }
	n := len(m.Views)
	if n < 2 {
		return nil
	}
	type pairSim struct {
		a, b columnRef
		sim  float64
	}
	var sims []pairSim
	denom := make(map[columnRef]float64)
	for t1 := 0; t1 < n; t1++ {
		for t2 := t1 + 1; t2 < n; t2++ {
			for c1 := 0; c1 < m.Views[t1].NumCols; c1++ {
				for c2 := 0; c2 < m.Views[t2].NumCols; c2++ {
					s := JaccardIDs(colCellSet(m.Views[t1], c1), colCellSet(m.Views[t2], c2))
					if s < minNeighborSim {
						continue
					}
					a := columnRef{t1, c1}
					b := columnRef{t2, c2}
					sims = append(sims, pairSim{a, b, s})
					denom[a] += s
					denom[b] += s
				}
			}
		}
	}
	if len(sims) == 0 {
		return nil
	}
	var rawEdges []rawEdge
	edgeIdx := make(map[[2]columnRef]int, len(sims))
	tablePairs := make(map[[2]int][]pairSim)
	for _, ps := range sims {
		edgeIdx[[2]columnRef{ps.a, ps.b}] = len(rawEdges)
		rawEdges = append(rawEdges, rawEdge{
			t1: int32(ps.a.t), c1: int32(ps.a.c), t2: int32(ps.b.t), c2: int32(ps.b.c),
			nsimAB: ps.sim / (lambda + denom[ps.a]),
			nsimBA: ps.sim / (lambda + denom[ps.b]),
			sim:    ps.sim,
		})
		key := [2]int{ps.a.t, ps.b.t}
		tablePairs[key] = append(tablePairs[key], ps)
	}
	for key, pairs := range tablePairs {
		t1, t2 := key[0], key[1]
		n1, n2 := m.Views[t1].NumCols, m.Views[t2].NumCols
		w := make([][]float64, n1)
		wBacking := make([]float64, n1*n2)
		for i := range w {
			w[i] = wBacking[i*n2 : (i+1)*n2]
		}
		for _, ps := range pairs {
			blend := matchContentWeight*ps.sim +
				matchHeaderWeight*HeaderSim(m.Views[t1], m.Views[t2], ps.a.c, ps.b.c)
			w[ps.a.c][ps.b.c] = blend
		}
		sol := graph.SolveAssignment(ones(n1), ones(n2), w)
		for c1, c2 := range sol.MatchL {
			if c2 < 0 {
				continue
			}
			if idx, ok := edgeIdx[[2]columnRef{{t1, c1}, {t2, c2}}]; ok {
				rawEdges[idx].matched = true
			}
		}
	}
	return rawEdges
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// colPairSim is one cross-view column pair whose content similarity
// cleared minNeighborSim: c1 indexes the first view of the pair, c2 the
// second, sim is the raw content Jaccard, and matched marks survival of
// the blended content+header one-one max-matching between the two views.
type colPairSim struct {
	c1, c2  int32
	sim     float64
	matched bool
}

// computePairSimsRef is the per-pair merge the shared-cell counts
// replaced: the same threshold and blended matching, but the Jaccard of
// every column pair merged from the two sorted cell-ID sets (with the
// size-ratio early-out that merge had), and a freshly allocated survivor
// list, weight grid and assignment workspace on every call.
func computePairSimsRef(a, b *TableView) []colPairSim {
	n1, n2 := a.NumCols, b.NumCols
	var out []colPairSim
	for c1 := 0; c1 < n1; c1++ {
		ids1 := colCellSet(a, c1)
		for c2 := 0; c2 < n2; c2++ {
			ids2 := colCellSet(b, c2)
			var s float64
			if len(ids1) > 0 && len(ids2) > 0 {
				lo, hi := len(ids1), len(ids2)
				if lo > hi {
					lo, hi = hi, lo
				}
				if float64(lo)/float64(hi) < minNeighborSim {
					continue
				}
				s = JaccardIDs(ids1, ids2)
			}
			if s < minNeighborSim {
				continue
			}
			out = append(out, colPairSim{c1: int32(c1), c2: int32(c2), sim: s})
		}
	}
	if len(out) == 0 {
		return nil
	}
	w := make([][]float64, n1)
	wBacking := make([]float64, n1*n2)
	for i := range w {
		w[i] = wBacking[i*n2 : (i+1)*n2]
	}
	for i := range out {
		e := &out[i]
		w[e.c1][e.c2] = matchContentWeight*e.sim +
			matchHeaderWeight*HeaderSim(a, b, int(e.c1), int(e.c2))
	}
	sol := graph.SolveAssignment(ones(n1), ones(n2), w)
	for i := range out {
		e := &out[i]
		if sol.MatchL[e.c1] == int(e.c2) {
			e.matched = true
		}
	}
	return out
}

// colCellSet is the sorted set of the distinct cell IDs of column c of v,
// read off the view's row-major cells.
func colCellSet(v *TableView, c int) []uint32 {
	var ids []uint32
	for r := 0; r*v.NumCols < len(v.cells); r++ {
		if id := v.Cell(r, c); id != NoID {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// pairSimViews returns views of random tables of widths cols..1 (widest
// first), every one interned into one symbol table, with cells drawn from
// a small vocabulary so columns overlap across tables.
func pairSimViews(r *rand.Rand, cols int) []*TableView {
	in := NewInterner()
	var views []*TableView
	for nc := cols; nc >= 1; nc-- {
		tb := &wtable.Table{ID: fmt.Sprintf("w%d", nc)}
		var hr wtable.Row
		for c := 0; c < nc; c++ {
			hr.Cells = append(hr.Cells, wtable.Cell{Text: phraseFrom(r, 1)})
		}
		tb.HeaderRows = append(tb.HeaderRows, hr)
		for i := 0; i < 2+r.Intn(6); i++ {
			var br wtable.Row
			for c := 0; c < nc; c++ {
				br.Cells = append(br.Cells, wtable.Cell{Text: phraseFrom(r, 1)})
			}
			tb.BodyRows = append(tb.BodyRows, br)
		}
		views = append(views, NewTableView(tb, in))
	}
	return views
}

// TestComputePairSimsReusedSlot runs the edge pass over one table pair at
// a time through one reused scratch, wide pairs before narrow ones (so
// every pass sees the stale, larger count rows, survivors and workspace of
// an earlier one), and demands the pair's survivors identical to the merge
// reference — survivors, order, similarities and matched flags.
func TestComputePairSimsReusedSlot(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	views := pairSimViews(r, 8)
	var slot BuildScratch
	for _, a := range views {
		for _, b := range views {
			m := &Model{Params: DefaultParams(), Views: []*TableView{a, b}}
			slot.colOff = append(slot.colOff[:0], 0, a.NumCols, a.NumCols+b.NumCols)
			m.buildRawEdges(&slot)
			var got []colPairSim
			for _, e := range m.rawEdges {
				if e.t1 != 0 || e.t2 != 1 {
					t.Fatalf("raw edge %+v outside the table pair (0, 1)", e)
				}
				got = append(got, colPairSim{c1: int32(e.c1), c2: int32(e.c2), sim: e.sim, matched: e.matched})
			}
			want := computePairSimsRef(a, b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d x %d cols: got %+v, want %+v", a.NumCols, b.NumCols, got, want)
			}
		}
	}
}

// checkEdgesEquiv rebuilds m's edges through the reference path and
// demands identical rawEdges (order, endpoints, similarities, matched
// flags) and identical final Edges.
func checkEdgesEquiv(t *testing.T, m *Model, label string) {
	t.Helper()
	ref := buildRawEdgesRef(m)
	if len(ref) != len(m.rawEdges) {
		t.Fatalf("%s: rawEdges count = %d, want %d", label, len(m.rawEdges), len(ref))
	}
	for i := range ref {
		if m.rawEdges[i] != ref[i] {
			t.Fatalf("%s: rawEdges[%d] = %+v, want %+v", label, i, m.rawEdges[i], ref[i])
		}
	}
	refModel := *m
	refModel.rawEdges = ref
	refModel.Edges = nil
	refModel.finalizeEdges(nil)
	if !reflect.DeepEqual(m.Edges, refModel.Edges) {
		t.Fatalf("%s: Edges diverged:\n got %+v\nwant %+v", label, m.Edges, refModel.Edges)
	}
}

// TestBuildRawEdgesEquivalence fuzzes the flat-array edge path against
// the map-based reference on randomized corpora, across edge
// variants. A second leg builds another corpus and then this one through
// one scratch, so this build's count rows and raw edges land in buffers
// left dirty (and possibly larger) by the first; its edges must equal the
// fresh-arena build's.
func TestBuildRawEdgesEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		numTables := 2 + r.Intn(5)
		tables := make([]*wtable.Table, numTables)
		for i := range tables {
			tables[i] = randTable(r)
			tables[i].ID = fmt.Sprintf("t%d", i)
		}
		p := DefaultParams()
		if seed%4 == 3 {
			p.Edges = EdgePotts
		}
		cols := []string{phraseFrom(r, 1+r.Intn(2)), phraseFrom(r, 1)}

		// Cacheless build (fresh interner per build).
		plain := &Builder{Params: p, Stats: constStats{}}
		m := plain.Build(cols, tables)
		checkEdgesEquiv(t, m, fmt.Sprintf("seed %d cacheless", seed))

		// Another corpus first, then this one, through one scratch.
		other := make([]*wtable.Table, 2+r.Intn(7))
		for i := range other {
			other[i] = randTable(r)
			other[i].ID = fmt.Sprintf("o%d", i)
		}
		engine := &Builder{Params: p, Stats: constStats{}, Views: NewViewCache()}
		var dirty BuildScratch
		buildIn(engine, cols, other, &dirty)
		mDirty := buildIn(engine, cols, tables, &dirty)
		checkEdgesEquiv(t, mDirty, fmt.Sprintf("seed %d dirty scratch", seed))
		if !reflect.DeepEqual(mDirty.rawEdges, m.rawEdges) || !reflect.DeepEqual(mDirty.Edges, m.Edges) {
			t.Fatalf("seed %d: dirty-scratch edges diverged from the fresh build's", seed)
		}
	}
}

// TestBuildRawEdgesMinNeighborSimBoundary pins the >= threshold boundary:
// a pair at exactly minNeighborSim is kept, one just below is dropped —
// in both the reference and the new path.
func TestBuildRawEdgesMinNeighborSimBoundary(t *testing.T) {
	// Column contents sized for exact Jaccard values: |A|=4, |B|=7,
	// inter=1 -> 1/10 = 0.1 (kept at minNeighborSim=0.1); |A|=4, |B|=8,
	// inter=1 -> 1/11 (dropped).
	mkTable := func(id string, header string, cells []string) *wtable.Table {
		tb := &wtable.Table{ID: id}
		tb.HeaderRows = append(tb.HeaderRows, row(header))
		for _, c := range cells {
			tb.BodyRows = append(tb.BodyRows, row(c))
		}
		return tb
	}
	a := mkTable("a", "alpha", []string{"shared", "a1", "a2", "a3"})
	b := mkTable("b", "beta", []string{"shared", "b1", "b2", "b3", "b4", "b5", "b6"})
	c := mkTable("c", "gamma", []string{"shared", "c1", "c2", "c3", "c4", "c5", "c6", "c7"})

	builder := &Builder{Params: DefaultParams(), Stats: constStats{}, Views: NewViewCache()}
	m := builder.Build([]string{"alpha", "beta"}, []*wtable.Table{a, b, c})
	checkEdgesEquiv(t, m, "boundary")

	found := map[[2]int]float64{}
	for _, re := range m.rawEdges {
		found[[2]int{int(re.t1), int(re.t2)}] = re.sim
	}
	// a-b: 1/10 = 0.1 exactly -> kept. a-c: 1/11 < 0.1 -> dropped.
	if s, ok := found[[2]int{0, 1}]; !ok || s != 0.1 {
		t.Errorf("a-b edge at the exact threshold missing or wrong: %v %v", s, ok)
	}
	if _, ok := found[[2]int{0, 2}]; ok {
		t.Error("a-c edge below the threshold survived")
	}
}

// TestBuildRawEdgesDummyMatchedColumns pins the dummy-match behavior: when
// the assignment pairs columns through zero-weight cells (no similarity
// above threshold between them), no raw edge is marked matched for them.
func TestBuildRawEdgesDummyMatchedColumns(t *testing.T) {
	// Tables with 2 columns each; only (0,0) is similar. The matching
	// will pair column 1 with column 1 at weight 0 — there is no raw edge
	// for that pair, so nothing extra may be marked.
	t1 := &wtable.Table{ID: "x"}
	t1.HeaderRows = append(t1.HeaderRows, row("name", "other"))
	t1.BodyRows = append(t1.BodyRows, row("shared", "u1"), row("also", "u2"))
	t2 := &wtable.Table{ID: "y"}
	t2.HeaderRows = append(t2.HeaderRows, row("name", "different"))
	t2.BodyRows = append(t2.BodyRows, row("shared", "v1"), row("also", "v2"))

	builder := &Builder{Params: DefaultParams(), Stats: constStats{}, Views: NewViewCache()}
	m := builder.Build([]string{"name"}, []*wtable.Table{t1, t2})
	checkEdgesEquiv(t, m, "dummy-matched")

	for _, re := range m.rawEdges {
		if re.c1 != 0 || re.c2 != 0 {
			t.Errorf("unexpected raw edge between dissimilar columns: %+v", re)
		}
	}
	if len(m.rawEdges) != 1 || !m.rawEdges[0].matched {
		t.Fatalf("want exactly one matched raw edge for (0,0), got %+v", m.rawEdges)
	}
}
