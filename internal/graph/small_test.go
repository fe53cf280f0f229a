package graph

import (
	"math"
	"math/rand"
	"testing"
)

// The MCMF reduction (SolveAssignment) is the oracle of the exact kernel:
// every public entry point must return exactly what the reduction returns
// for the same problem (labels, matched flags), with totals and
// max-marginals within 1e-9 of the brute-force optimum.

// labelCaps returns the reduction's capacities of a labeling problem:
// unit columns, unit query labels, and naCap on na.
func labelCaps(nt, q, naCap int) (capL, capR []int) {
	capL = make([]int, nt)
	for i := range capL {
		capL[i] = 1
	}
	capR = make([]int, q+1)
	for j := range capR {
		capR[j] = 1
	}
	capR[q] = naCap
	return capL, capR
}

// grid returns an nt x n weight grid drawn by draw.
func grid(nt, n int, draw func() float64) [][]float64 {
	w := make([][]float64, nt)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = draw()
		}
	}
	return w
}

// coarse draws weights on a 0.5 grid, so exact ties between different
// labelings are common.
func coarse(r *rand.Rand) func() float64 {
	return func() float64 { return float64(r.Intn(9)-4) / 2 }
}

// checkLabelMAP solves one labeling problem through LabelMAP and through
// the oracle. It demands the brute-force optimum as total, the oracle's
// side of outside, and the oracle's labels whenever the optimum beats
// outside.
func checkLabelMAP(t *testing.T, w [][]float64, q, minReal int, outside float64, ws *Workspace) {
	t.Helper()
	nt := len(w)
	capL, capR := labelCaps(nt, q, nt-minReal)
	want := SolveAssignment(capL, capR, w)
	exact := bruteForceAssignment(capR, w)
	match, total := LabelMAP(w, q, minReal, outside, ws)
	if math.Abs(total-exact) > 1e-9 {
		t.Fatalf("w=%v q=%d minReal=%d: total %v, exact optimum %v", w, q, minReal, total, exact)
	}
	if (total > outside) != (want.Total > outside) {
		t.Fatalf("w=%v q=%d minReal=%d outside=%v: total %v and oracle %v on different sides",
			w, q, minReal, outside, total, want.Total)
	}
	if total <= outside {
		return
	}
	for c := range match {
		if match[c] != want.MatchL[c] {
			t.Fatalf("w=%v q=%d minReal=%d: labels %v, oracle %v", w, q, minReal, match, want.MatchL)
		}
	}
}

func TestLabelMAPMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 3000; trial++ {
		nt := 1 + r.Intn(6)
		q := 1 + r.Intn(4)
		minReal := r.Intn(min(q, nt) + 1)
		draw := coarse(r)
		if trial%2 == 0 {
			draw = func() float64 { return r.NormFloat64() * 3 }
		}
		w := grid(nt, q+1, draw)
		outside := math.Inf(-1)
		if trial%3 == 0 {
			outside = draw() * float64(nt)
		}
		checkLabelMAP(t, w, q, minReal, outside, &ws)
	}
}

// TestLabelMAPDecides pins that the kernel, not the fallback, answers an
// untied problem, and reports an exact tie as a zero gap.
func TestLabelMAPDecides(t *testing.T) {
	var ws Workspace
	w := [][]float64{{3, 1, 0}, {2, 5, 0}, {0, 0, 0}}
	total, gap, ok := ws.labelMAP(w, 2, 1)
	if !ok || total != 8 || gap != 3 {
		t.Fatalf("untied problem: total %v gap %v ok %v, want 8, 3, true", total, gap, ok)
	}
	if got := ws.labels[:3]; got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("labels %v, want [0 1 2]", got)
	}
	tied := [][]float64{{1, -1, 0}, {1, -1, 0}}
	if _, gap, ok := ws.labelMAP(tied, 2, 1); !ok || gap != 0 {
		t.Fatalf("tied problem: gap %v ok %v, want 0, true", gap, ok)
	}
	checkLabelMAP(t, tied, 2, 1, math.Inf(-1), &ws)
	if _, _, ok := ws.labelMAP([][]float64{{math.Inf(-1), 0}}, 1, 0); ok {
		t.Fatal("a forbidden cell must go to the fallback")
	}

	// The optimum puts column 2 on the label. The kernel sums
	// -0.4-0.4+1+0.8 in column order to exactly 1; the reduction reaches
	// 0.9999999999999999 along its augmenting paths. With outside at the
	// reduction's total, only the fallback lands on the reduction's side.
	ulp := [][]float64{{0.8, -0.4}, {0.9, -0.4}, {1, -0.6}, {-0.3, 0.8}}
	capL, capR := labelCaps(4, 1, 3)
	outside := SolveAssignment(capL, capR, ulp).Total
	if total, _, _ := ws.labelMAP(ulp, 1, 1); total == outside {
		t.Fatalf("kernel and reduction agree on %v: the case no longer tests the outside margin", total)
	}
	checkLabelMAP(t, ulp, 1, 1, outside, &ws)
}

func TestLabelMaxMarginalsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var ws Workspace
	for trial := 0; trial < 1500; trial++ {
		nt := 1 + r.Intn(6)
		q := 1 + r.Intn(4)
		draw := coarse(r)
		if trial%2 == 0 {
			draw = func() float64 { return r.NormFloat64() * 3 }
		}
		// Rows one longer than the problem: LabelMaxMarginals must leave
		// the trailing entry alone, as the model's nr slot.
		w := grid(nt, q+2, draw)
		mu := grid(nt, q+2, func() float64 { return 42 })
		LabelMaxMarginals(w, q, mu, &ws)
		capL, capR := labelCaps(nt, q, nt)
		oracle := SolveAssignment(capL, capR, w).MaxMarginals()
		for c := 0; c < nt; c++ {
			if mu[c][q+1] != 42 {
				t.Fatalf("w=%v: the entry past na was written", w)
			}
			for j := 0; j <= q; j++ {
				exact := bruteMaxMarginal(capR, w, c, j)
				if math.Abs(mu[c][j]-exact) > 1e-9 || math.Abs(oracle[c][j]-exact) > 1e-9 {
					t.Fatalf("w=%v q=%d: mu[%d][%d] = %v, oracle %v, exact %v",
						w, q, c, j, mu[c][j], oracle[c][j], exact)
				}
			}
		}
	}
}

// checkMatchCells solves one sparse matching through MatchCells and
// through the oracle on the dense grid, and demands the same flags.
func checkMatchCells(t *testing.T, nL, nR int, cells []Cell, ws *Workspace) {
	t.Helper()
	w := grid(nL, nR, func() float64 { return 0 })
	for _, e := range cells {
		w[e.L][e.R] = e.W
	}
	capL, _ := labelCaps(nL, 0, 0)
	capR, _ := labelCaps(nR, 0, 0)
	oracle := SolveAssignment(capL, capR, w)
	got := MatchCells(nL, nR, cells, ws)
	for i, e := range cells {
		if want := oracle.MatchL[e.L] == int(e.R); got[i] != want {
			t.Fatalf("%dx%d cells %v: cell %d matched %v, oracle %v (MatchL %v)",
				nL, nR, cells, i, got[i], want, oracle.MatchL)
		}
	}
}

// randomCells draws a sparse grid in (L, R) order, each cell present with
// probability density.
func randomCells(r *rand.Rand, nL, nR int, density float64, draw func() float64) []Cell {
	var cells []Cell
	for i := 0; i < nL; i++ {
		for j := 0; j < nR; j++ {
			if r.Float64() < density {
				cells = append(cells, Cell{L: int32(i), R: int32(j), W: draw()})
			}
		}
	}
	return cells
}

func TestMatchCellsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var ws Workspace
	for trial := 0; trial < 3000; trial++ {
		nL, nR := 1+r.Intn(6), 1+r.Intn(6)
		draw := func() float64 { return float64(r.Intn(5)) / 4 } // ties and zeros
		if trial%2 == 0 {
			draw = func() float64 { return 0.07 + r.Float64() }
		}
		cells := randomCells(r, nL, nR, 0.1+0.8*r.Float64(), draw)
		checkMatchCells(t, nL, nR, cells, &ws)
	}
	// Wider than the kernel's mask: the fallback answers.
	cells := randomCells(r, 3, 12, 1, r.Float64)
	checkMatchCells(t, 3, 12, cells, &ws)
}

// TestMatchCellsDecides pins the kernel's two exact paths and its tie
// rule: disjoint cells are all matched, a contested column goes to the
// heavier matching, and a tie goes to the fallback.
func TestMatchCellsDecides(t *testing.T) {
	var ws Workspace
	ws.matched = make([]bool, 3)
	disjoint := []Cell{{0, 1, 0.5}, {1, 0, 0.2}, {2, 2, 0.9}}
	if !ws.matchCells(3, 3, disjoint) || !ws.matched[0] || !ws.matched[1] || !ws.matched[2] {
		t.Fatalf("disjoint cells: matched %v", ws.matched)
	}
	ws.matched = make([]bool, 3)
	contested := []Cell{{0, 0, 0.5}, {0, 1, 0.4}, {1, 0, 0.8}}
	if !ws.matchCells(2, 2, contested) || ws.matched[0] || !ws.matched[1] || !ws.matched[2] {
		t.Fatalf("contested cells: matched %v, want [false true true]", ws.matched)
	}
	ws.matched = make([]bool, 2)
	tied := []Cell{{0, 0, 0.5}, {1, 0, 0.5}}
	if ws.matchCells(2, 1, tied) {
		t.Fatal("an exact tie must go to the fallback")
	}
	checkMatchCells(t, 2, 1, tied, &ws)
	zero := []Cell{{0, 0, 0}}
	if ws.matchCells(1, 1, zero) {
		t.Fatal("a zero-weight cell ties with leaving it out and must go to the fallback")
	}
	checkMatchCells(t, 1, 1, zero, &ws)
}

// TestSmallKernelWarmAllocs pins the kernel's steady state: through a warm
// workspace, every entry point solves without allocating.
func TestSmallKernelWarmAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var ws Workspace
	w := grid(6, 4, r.NormFloat64)
	mu := grid(6, 4, func() float64 { return 0 })
	cells := []Cell{{0, 0, 0.3}, {0, 1, 0.2}, {1, 1, 0.5}, {2, 2, 0.4}}
	run := func() {
		LabelMAP(w, 3, 2, math.Inf(-1), &ws)
		LabelMaxMarginals(w, 3, mu, &ws)
		MatchCells(3, 3, cells, &ws)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm kernel solves allocate %.0f/op, want 0", allocs)
	}
}

// FuzzSmallAssignment drives all three kernel entry points against the
// MCMF oracle on fuzzer-shaped problems. Weights come from nine values on a
// 0.25 grid, zero among them, so ties and zero-weight cells are the norm.
// A last leg keeps a disjoint subset of the matching's cells and pins
// DisjointMatched: whenever it holds, MatchCells marks every cell.
func FuzzSmallAssignment(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 4, 4, 8, 2, 0, 0, 6, 1, 3})
	f.Add([]byte{2, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 1, 1, 9, 0, 3, 3, 7, 2, 2, 0, 0, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nt, q := 1+int(data[0])%6, 1+int(data[1])%4
		minReal := int(data[2]) % (min(q, nt) + 1)
		next := 4
		draw := func() float64 {
			if next >= len(data) {
				return 0
			}
			b := data[next]
			next++
			return float64(int(b%9)-4) / 4
		}
		var ws Workspace
		w := grid(nt, q+1, draw)
		checkLabelMAP(t, w, q, minReal, math.Inf(-1), &ws)
		checkLabelMAP(t, w, q, minReal, float64(int(data[3]%9)-4)/4, &ws)

		mu := grid(nt, q+1, func() float64 { return 0 })
		LabelMaxMarginals(w, q, mu, &ws)
		_, capR := labelCaps(nt, q, nt)
		for c := range mu {
			for j := range mu[c] {
				if exact := bruteMaxMarginal(capR, w, c, j); math.Abs(mu[c][j]-exact) > 1e-9 {
					t.Fatalf("w=%v: mu[%d][%d] = %v, exact %v", w, c, j, mu[c][j], exact)
				}
			}
		}

		nL, nR := nt, 1+int(data[3])%6
		var cells []Cell
		for i := 0; i < nL; i++ {
			for j := 0; j < nR; j++ {
				if v := draw(); v >= 0 {
					cells = append(cells, Cell{L: int32(i), R: int32(j), W: v})
				}
			}
		}
		checkMatchCells(t, nL, nR, cells, &ws)

		// The first cell of each row whose column no earlier row took:
		// disjoint cells, which MatchCells must all mark whenever
		// DisjointMatched holds for their weights' range.
		var disjoint []Cell
		taken := make([]bool, nR)
		for i, e := range cells {
			if (i == 0 || cells[i-1].L != e.L) && !taken[e.R] {
				taken[e.R] = true
				disjoint = append(disjoint, e)
			}
		}
		checkMatchCells(t, nL, nR, disjoint, &ws)
		minW, maxW := math.Inf(1), math.Inf(-1)
		for _, e := range disjoint {
			minW, maxW = min(minW, e.W), max(maxW, e.W)
		}
		if DisjointMatched(nL, nR, len(disjoint), minW, maxW) {
			for i, m := range MatchCells(nL, nR, disjoint, &ws) {
				if !m {
					t.Fatalf("%dx%d disjoint cells %v: DisjointMatched holds, cell %d unmatched", nL, nR, disjoint, i)
				}
			}
		}
	})
}

// BenchmarkSmallAssignment compares the kernel with the MCMF reduction on
// the hot path's typical shapes: a 3-label stage-1 max-marginal and MAP
// solve over a 6-column table, and a 2x3 pair matching.
func BenchmarkSmallAssignment(b *testing.B) {
	r := rand.New(rand.NewSource(59))
	w := grid(6, 4, r.NormFloat64)
	mu := grid(6, 4, func() float64 { return 0 })
	capL, capR := labelCaps(6, 3, 6)
	mapL, mapR := labelCaps(6, 3, 4)
	cells := []Cell{{0, 0, 0.4}, {0, 2, 0.3}, {1, 1, 0.6}}
	pw := [][]float64{{0.4, 0, 0.3}, {0, 0.6, 0}}
	ones2, ones3 := []int{1, 1}, []int{1, 1, 1}
	var ws Workspace
	b.Run("maxmarginals/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LabelMaxMarginals(w, 3, mu, &ws)
		}
	})
	b.Run("maxmarginals/mcmf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SolveAssignmentWS(capL, capR, w, &ws).MaxMarginals()
		}
	})
	b.Run("map/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LabelMAP(w, 3, 2, math.Inf(-1), &ws)
		}
	})
	b.Run("map/mcmf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SolveAssignmentWS(mapL, mapR, w, &ws)
		}
	})
	b.Run("pair/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatchCells(2, 3, cells, &ws)
		}
	})
	b.Run("pair/mcmf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SolveAssignmentWS(ones2, ones3, pw, &ws)
		}
	})
}
