package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestMCMFSimplePath(t *testing.T) {
	g := NewMCMF(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 2, 2, 1)
	g.AddEdge(2, 3, 2, 1)
	flow, cost := g.Run(0, 3)
	if flow != 2 || math.Abs(cost-6) > 1e-9 {
		t.Errorf("flow=%d cost=%f, want 2, 6", flow, cost)
	}
}

func TestMCMFPicksCheaperPath(t *testing.T) {
	// Two parallel paths; cheaper one must carry flow first.
	g := NewMCMF(4)
	cheap := g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 3, 1, 1)
	expensive := g.AddEdge(0, 2, 1, 10)
	g.AddEdge(2, 3, 1, 10)
	flow, cost := g.Run(0, 3)
	if flow != 2 || math.Abs(cost-22) > 1e-9 {
		t.Errorf("flow=%d cost=%f", flow, cost)
	}
	if g.EdgeFlow(cheap) != 1 || g.EdgeFlow(expensive) != 1 {
		t.Error("edge flows wrong")
	}
}

// TestMCMFTieBreakInsertionOrder: among equal-cost augmenting paths the
// solver must route flow along the first-added edges. The shortest-path
// relaxation is strict (nd < dist[v]-costEps), so the winner is whichever
// tied edge is relaxed first — which regressed when the forward-star lists
// briefly iterated most-recent-first instead of insertion order.
func TestMCMFTieBreakInsertionOrder(t *testing.T) {
	// A capacity-1 bottleneck 0→1 feeding two identical-cost branches
	// 1→2→4 and 1→3→4: only one tied branch can carry the single unit.
	g := NewMCMF(5)
	g.AddEdge(0, 1, 1, 0)
	first := g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 4, 1, 1)
	second := g.AddEdge(1, 3, 1, 1)
	g.AddEdge(3, 4, 1, 1)
	flow, cost := g.Run(0, 4)
	if flow != 1 || math.Abs(cost-2) > 1e-9 {
		t.Fatalf("flow=%d cost=%f, want 1, 2", flow, cost)
	}
	if g.EdgeFlow(first) != 1 || g.EdgeFlow(second) != 0 {
		t.Errorf("tie broke to the later edge: flows %d/%d, want 1/0",
			g.EdgeFlow(first), g.EdgeFlow(second))
	}
}

func TestMCMFNegativeCosts(t *testing.T) {
	// Bipartite-matching-like graph with negative costs (= positive weights).
	g := NewMCMF(6)
	g.AddEdge(0, 1, 1, 0) // s -> l0
	g.AddEdge(0, 2, 1, 0) // s -> l1
	g.AddEdge(1, 3, 1, -5)
	g.AddEdge(1, 4, 1, -3)
	g.AddEdge(2, 3, 1, -4)
	g.AddEdge(2, 4, 1, -1)
	g.AddEdge(3, 5, 1, 0)
	g.AddEdge(4, 5, 1, 0)
	flow, cost := g.Run(0, 5)
	// Best assignment: l0->r1 (-3), l1->r0 (-4) = -7 (vs -5 + -1 = -6).
	if flow != 2 || math.Abs(cost-(-7)) > 1e-9 {
		t.Errorf("flow=%d cost=%f, want 2, -7", flow, cost)
	}
}

// bruteForceAssignment enumerates all assignments of left nodes (capacity 1
// each) to rights with capacities capR, maximizing total weight.
func bruteForceAssignment(capR []int, w [][]float64) float64 {
	nL, nR := len(w), len(capR)
	best := math.Inf(-1)
	assign := make([]int, nL)
	var rec func(i int, used []int, total float64)
	rec = func(i int, used []int, total float64) {
		if i == nL {
			if total > best {
				best = total
			}
			return
		}
		for j := 0; j < nR; j++ {
			if used[j] < capR[j] && !math.IsInf(w[i][j], -1) {
				used[j]++
				assign[i] = j
				rec(i+1, used, total+w[i][j])
				used[j]--
			}
		}
	}
	rec(0, make([]int, nR), 0)
	return best
}

func TestAssignmentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nL := 1 + rng.Intn(4)
		nR := 1 + rng.Intn(3)
		capL := make([]int, nL)
		for i := range capL {
			capL[i] = 1
		}
		capR := make([]int, nR)
		sumR := 0
		for j := range capR {
			capR[j] = 1 + rng.Intn(2)
			sumR += capR[j]
		}
		if sumR < nL {
			capR[0] += nL - sumR // ensure feasibility
		}
		w := make([][]float64, nL)
		for i := range w {
			w[i] = make([]float64, nR)
			for j := range w[i] {
				w[i][j] = math.Round(rng.Float64()*200-50) / 10
			}
		}
		sol := SolveAssignment(capL, capR, w)
		want := bruteForceAssignment(capR, w)
		if math.Abs(sol.Total-want) > 1e-6 {
			t.Fatalf("trial %d: Total=%f brute=%f w=%v capR=%v", trial, sol.Total, want, w, capR)
		}
	}
}

func TestAssignmentMatchVector(t *testing.T) {
	w := [][]float64{
		{5, 1},
		{4, 3},
	}
	sol := SolveAssignment([]int{1, 1}, []int{1, 1}, w)
	if math.Abs(sol.Total-8) > 1e-9 {
		t.Fatalf("Total=%f, want 8", sol.Total)
	}
	if sol.MatchL[0] != 0 || sol.MatchL[1] != 1 {
		t.Errorf("MatchL=%v", sol.MatchL)
	}
}

func TestAssignmentForbiddenPair(t *testing.T) {
	w := [][]float64{
		{math.Inf(-1), 2},
		{3, math.Inf(-1)},
	}
	sol := SolveAssignment([]int{1, 1}, []int{1, 1}, w)
	if math.Abs(sol.Total-5) > 1e-9 {
		t.Fatalf("Total=%f, want 5", sol.Total)
	}
	if sol.MatchL[0] != 1 || sol.MatchL[1] != 0 {
		t.Errorf("MatchL=%v", sol.MatchL)
	}
}

func TestAssignmentUnbalancedWithDummy(t *testing.T) {
	// 3 lefts, 2 rights of capacity 1: one left must go unmatched... but
	// §4.2.1 balances with a dummy; infeasible lefts match the dummy side.
	// Here we give rights extra capacity so everything is feasible.
	w := [][]float64{{1, 9}, {8, 2}, {3, 3}}
	sol := SolveAssignment([]int{1, 1, 1}, []int{2, 2}, w)
	want := bruteForceAssignment([]int{2, 2}, w)
	if math.Abs(sol.Total-want) > 1e-9 {
		t.Errorf("Total=%f brute=%f", sol.Total, want)
	}
}

// bruteMaxMarginal computes the best assignment total with left i forced
// to right j.
func bruteMaxMarginal(capR []int, w [][]float64, fi, fj int) float64 {
	nL, nR := len(w), len(capR)
	best := math.Inf(-1)
	var rec func(i int, used []int, total float64)
	rec = func(i int, used []int, total float64) {
		if i == nL {
			if total > best {
				best = total
			}
			return
		}
		lo, hi := 0, nR-1
		if i == fi {
			lo, hi = fj, fj
		}
		for j := lo; j <= hi; j++ {
			if used[j] < capR[j] && !math.IsInf(w[i][j], -1) {
				used[j]++
				rec(i+1, used, total+w[i][j])
				used[j]--
			}
		}
	}
	rec(0, make([]int, nR), 0)
	return best
}

func TestMaxMarginalsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nL := 1 + rng.Intn(4)
		nR := nL + rng.Intn(3) // enough right capacity for any forcing
		capL := make([]int, nL)
		for i := range capL {
			capL[i] = 1
		}
		capR := make([]int, nR)
		for j := range capR {
			capR[j] = 1
		}
		w := make([][]float64, nL)
		for i := range w {
			w[i] = make([]float64, nR)
			for j := range w[i] {
				w[i][j] = math.Round(rng.Float64()*200-60) / 10
			}
		}
		sol := SolveAssignment(capL, capR, w)
		mu := sol.MaxMarginals()
		for i := 0; i < nL; i++ {
			for j := 0; j < nR; j++ {
				want := bruteMaxMarginal(capR, w, i, j)
				if math.IsInf(want, -1) != math.IsInf(mu[i][j], -1) {
					t.Fatalf("trial %d mu[%d][%d]=%v want %v (w=%v)", trial, i, j, mu[i][j], want, w)
				}
				if !math.IsInf(want, -1) && math.Abs(mu[i][j]-want) > 1e-6 {
					t.Fatalf("trial %d mu[%d][%d]=%f want %f (w=%v)", trial, i, j, mu[i][j], want, w)
				}
			}
		}
	}
}

func TestMaxMarginalOfOptimalIsTotal(t *testing.T) {
	w := [][]float64{{5, 1}, {4, 3}}
	sol := SolveAssignment([]int{1, 1}, []int{1, 1}, w)
	mu := sol.MaxMarginals()
	if math.Abs(mu[0][0]-sol.Total) > 1e-9 || math.Abs(mu[1][1]-sol.Total) > 1e-9 {
		t.Errorf("max-marginal at optimum should equal Total: %v vs %f", mu, sol.Total)
	}
	// Forcing either off-optimal pair leaves the swapped assignment 1+4=5.
	if math.Abs(mu[0][1]-5) > 1e-9 || math.Abs(mu[1][0]-5) > 1e-9 {
		t.Errorf("off-optimal max-marginals = %v, want 5", mu)
	}
}

func TestDinicSimple(t *testing.T) {
	g := NewFlowGraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 2, 2)
	g.AddEdge(1, 3, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(1, 2, 5)
	if f := g.MaxFlow(0, 3); math.Abs(f-5) > 1e-9 {
		t.Errorf("max flow = %f, want 5", f)
	}
}

func TestDinicMinCutSide(t *testing.T) {
	g := NewFlowGraph(4)
	g.AddEdge(0, 1, 1) // bottleneck
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 10)
	g.MaxFlow(0, 3)
	side := g.SSide(0)
	if !side[0] || side[1] || side[2] || side[3] {
		t.Errorf("SSide = %v, want only node 0", side)
	}
}

func TestDinicIncrementalAfterRaiseCap(t *testing.T) {
	g := NewFlowGraph(3)
	e := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 10)
	if f := g.MaxFlow(0, 2); math.Abs(f-1) > 1e-9 {
		t.Fatalf("first flow = %f", f)
	}
	g.RaiseCap(e, 4)
	if f := g.MaxFlow(0, 2); math.Abs(f-4) > 1e-9 {
		t.Errorf("incremental flow = %f, want 4", f)
	}
}

func TestDinicClone(t *testing.T) {
	g := NewFlowGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	c := g.Clone()
	c.MaxFlow(0, 2)
	// Original must be untouched.
	if f := g.MaxFlow(0, 2); math.Abs(f-5) > 1e-9 {
		t.Errorf("clone mutated original: flow=%f", f)
	}
}

// buildCutGraph creates a graph where nodes 2..n+1 are variables with
// s-edge cost a[i] (cut when var on t side) and t-edge cost b[i] (cut when
// var on s side).
func buildCutGraph(a, b []float64) (*FlowGraph, map[int]int, []int) {
	n := len(a)
	g := NewFlowGraph(n + 2)
	sEdge := map[int]int{}
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		v := 2 + i
		vars[i] = v
		sEdge[v] = g.AddEdge(0, v, a[i])
		g.AddEdge(v, 1, b[i])
	}
	return g, sEdge, vars
}

func TestConstrainedCutUnconstrainedCase(t *testing.T) {
	// Both variables prefer the t side (cheap s edges... wait: s-edge cut
	// when on t side). a[i] small => cheap to put on t side.
	g, sEdge, vars := buildCutGraph([]float64{1, 1}, []float64{10, 10})
	tSide := ConstrainedMinCut(g, 0, 1, [][]int{{vars[0]}, {vars[1]}}, sEdge)
	if !tSide[vars[0]] || !tSide[vars[1]] {
		t.Errorf("singleton groups must not constrain: %v", tSide)
	}
}

func TestConstrainedCutEnforcesGroup(t *testing.T) {
	// Three variables in one group all prefer the t side; only one may stay.
	g, sEdge, vars := buildCutGraph([]float64{1, 2, 3}, []float64{10, 10, 10})
	groups := [][]int{vars}
	tSide := ConstrainedMinCut(g, 0, 1, groups, sEdge)
	count := 0
	for _, v := range vars {
		if tSide[v] {
			count++
		}
	}
	if count > 1 {
		t.Fatalf("constraint violated: %d on t side", count)
	}
	// Keeping survivor k costs a_k + Σ_{i≠k} b_i; minimized by the cheapest
	// s-edge, vars[0].
	if !tSide[vars[0]] {
		t.Errorf("wrong survivor: %v", tSide)
	}
}

func TestConstrainedCutMultipleGroups(t *testing.T) {
	a := []float64{1, 1, 1, 1}
	b := []float64{5, 5, 5, 5}
	g, sEdge, vars := buildCutGraph(a, b)
	groups := [][]int{{vars[0], vars[1]}, {vars[2], vars[3]}}
	tSide := ConstrainedMinCut(g, 0, 1, groups, sEdge)
	for gi, grp := range groups {
		n := 0
		for _, v := range grp {
			if tSide[v] {
				n++
			}
		}
		if n > 1 {
			t.Errorf("group %d has %d on t side", gi, n)
		}
	}
}

func TestConstrainedCutAlreadySatisfied(t *testing.T) {
	// Variables prefer the s side: big a, small b.
	g, sEdge, vars := buildCutGraph([]float64{10, 10}, []float64{1, 1})
	tSide := ConstrainedMinCut(g, 0, 1, [][]int{vars}, sEdge)
	if tSide[vars[0]] || tSide[vars[1]] {
		t.Errorf("no one should be on t side: %v", tSide)
	}
}

// NewMCMF returns an empty network on n nodes (0..n-1).
func NewMCMF(n int) *MCMF {
	head := make([]int32, 2*n)
	for i := range head {
		head[i] = -1
	}
	return &MCMF{n: n, head: head[:n], tail: head[n:]}
}
