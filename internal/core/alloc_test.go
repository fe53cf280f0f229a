package core

import (
	"runtime"
	"testing"
)

// Allocation regression guards for the zero-alloc claims the ROADMAP
// makes: the interned sorted-set similarities must stay allocation-free —
// they run inside the O(T²·C²) pair grid, where a single allocation per
// call would dominate the edge-construction cost.

func TestContentSimZeroAlloc(t *testing.T) {
	a := view(table("a", [][]string{{"Country", "Currency"}},
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}, {"Brazil", "Real"}}, ""))
	b := view(table("b", [][]string{{"Nation", "Currency"}},
		[][]string{{"France", "Euro"}, {"India", "Rupee"}, {"Japan", "Yen"}}, ""))
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += ContentSim(a, b, 0, 0)
		sink += ContentSim(a, b, 1, 1)
	})
	if allocs != 0 {
		t.Errorf("ContentSim allocates %.0f/op, want 0", allocs)
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

// TestWarmBuildAllocsParallel bounds the allocations of a warm two-half
// build (BuildTables over half of each corpus query's candidates, Extend
// with the rest) on the parallel path. testing.AllocsPerRun sets
// GOMAXPROCS to 1 while it measures, so under it parallelForWorkers
// always takes its serial loop and the worker fan-out's own allocations
// go unseen. This test runs at GOMAXPROCS 2 and counts
// runtime.MemStats.Mallocs over repeated warm builds instead.
func TestWarmBuildAllocsParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
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
	buildAll() // warm the view cache and grow the scratch
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		buildAll()
	}
	runtime.ReadMemStats(&after)
	perBuild := float64(after.Mallocs-before.Mallocs) / float64(rounds*len(cases))
	// Measured 44.8 per build, and the same under -race; one worker makes
	// about half that. The ceiling leaves a third of headroom.
	const ceiling = 60
	if perBuild > ceiling {
		t.Errorf("warm parallel build allocates %.1f/build, ceiling %d", perBuild, ceiling)
	}
}
