package core

import (
	"runtime"
	"testing"

	"wwt/internal/corpusgen"
	"wwt/internal/extract"
)

// Allocation regression guards for the zero-alloc claims the ROADMAP
// makes: the interned sorted-set similarities must stay allocation-free —
// HeaderSim runs once per surviving column pair of the edge pass, and
// consolidation compares cells' token sets once per merge attempt, where
// a single allocation per call would dominate the cost.

// TestContentSimZeroAlloc pins consolidation's cell comparison: a body
// cell's ID, its token set in the interner and their Jaccard.
func TestContentSimZeroAlloc(t *testing.T) {
	a := view(table("a", [][]string{{"Country", "Currency"}},
		[][]string{{"Republic of France", "Euro"}, {"Japan", "Yen"}}, ""))
	b := view(table("b", [][]string{{"Nation", "Currency"}},
		[][]string{{"France", "Euro"}, {"Japan", "Japanese Yen"}}, ""))
	sims := func() (sum float64) {
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				sum += JaccardIDs(a.CellTokens(a.Cell(r, c)), b.CellTokens(b.Cell(r, c)))
			}
		}
		return sum
	}
	if s := sims(); s != 0.5+1+1+0.5 {
		t.Fatalf("cell Jaccards sum to %v, want 3", s)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() { sink += sims() })
	if allocs != 0 {
		t.Errorf("cell Jaccard allocates %.0f/op, want 0", allocs)
	}
	_ = sink
}

func TestHeaderSimZeroAlloc(t *testing.T) {
	a := view(table("a", [][]string{{"Country Name", "Currency Unit"}},
		[][]string{{"France", "Euro"}}, ""))
	b := view(table("b", [][]string{{"Name of Country", "Currency"}},
		[][]string{{"Japan", "Yen"}}, ""))
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += HeaderSim(a, b, 0, 0)
		sink += HeaderSim(a, b, 1, 1)
	})
	if allocs != 0 {
		t.Errorf("HeaderSim allocates %.0f/op, want 0", allocs)
	}
	_ = sink
}

// stubPMI is a PMISource whose doc sets are preallocated, so every
// allocation a pmi2 call makes is pmi2's own.
type stubPMI struct{ docs []int32 }

func (s *stubPMI) HeaderContextDocs([]string) []int32 { return s.docs }
func (s *stubPMI) ContentDocs([]string) []int32       { return s.docs }

// TestPMI2ZeroAlloc pins the PMI² feature allocation-free: the cell
// tokens it hands ContentDocs through the PMISource interface live in the
// build scratch, so no per-call buffer moves to the heap.
func TestPMI2ZeroAlloc(t *testing.T) {
	v := view(table("a", [][]string{{"Country", "Currency"}},
		[][]string{{"Republic of France", "Euro"}, {"Japan", "Yen"}}, ""))
	src := &stubPMI{docs: []int32{1, 3, 5}}
	hDocs := []int32{1, 2, 3}
	p := DefaultParams()
	var s BuildScratch
	pmis := func() (sum float64) {
		for c := 0; c < v.NumCols; c++ {
			sum += pmi2(hDocs, v, c, src, p, s.pmiToks[:])
		}
		return sum
	}
	if got := pmis(); got == 0 {
		t.Fatal("PMI² over overlapping doc sets is 0")
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() { sink += pmis() })
	if allocs != 0 {
		t.Errorf("pmi2 allocates %.0f/op, want 0", allocs)
	}
	_ = sink
}

// TestWarmBuildAllocsParallel bounds the allocations of a warm two-half
// build (BuildTables over half of each corpus query's candidates, Extend
// with the rest) through one reused scratch.
func TestWarmBuildAllocsParallel(t *testing.T) {
	searcher, cases := corpusCases(t, 0.25, 40)
	b := &Builder{Params: DefaultParams(), Stats: searcher, Views: NewViewCache()}
	var s BuildScratch
	buildAll := func() {
		for _, c := range cases {
			k := len(c.tables) / 2
			m := b.BuildTables(c.cols, c.tables[:k], &s)
			m.Extend(b, c.tables[k:], &s)
		}
	}
	perBuild := testing.AllocsPerRun(5, buildAll) / float64(len(cases))
	// Measured 16.1 per build, and the same under -race. The ceiling
	// leaves a third of headroom.
	const ceiling = 22
	if perBuild > ceiling {
		t.Errorf("warm build allocates %.1f/build, ceiling %d", perBuild, ceiling)
	}
}

// TestViewFootprint bounds the heap a view cache holds per analyzed
// table, interner included: the cache lives as long as its engine and
// keeps every table it has seen, so its size is resident memory. It
// analyzes the whole seed-2012 corpus at scale 1 (629 tables).
func TestViewFootprint(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 1})
	tables := corpus.ExtractAll(extract.NewOptions())
	p := DefaultParams()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	vc := NewViewCache()
	for _, tb := range tables {
		vc.view(tb, p)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perView := (float64(ms.HeapAlloc) - float64(before)) / float64(len(tables))
	runtime.KeepAlive(vc)
	t.Logf("%d views: %.0f B/view", vc.Len(), perView)
	// Measured 955 B/view here and 747 B/view over the 20128 tables of
	// scale 32, where the shared interner weighs less per view; views
	// that baked IDF into header maps took about 4000. The ceiling leaves
	// a quarter of headroom.
	const ceiling = 1200
	if perView > ceiling {
		t.Errorf("view cache holds %.0f B/view, ceiling %d", perView, ceiling)
	}
}
