package inference

import (
	"wwt/internal/core"
	"wwt/internal/graph"
	"wwt/internal/slicex"
)

// SolveAlphaExpansion implements the constrained α-expansion of §4.3.
// Starting from the all-na labeling, each move optimally switches a set of
// variables to label α via a minimum s-t cut; for query-column labels the
// cut is the constrained minimum cut of Fig. 4, which lets at most one
// column per table switch (the mutex constraint). The all-Irr constraint
// rides along as pairwise energies (Eq. 11); must-match and min-match are
// repaired per table afterwards (§4.3).
func SolveAlphaExpansion(m *core.Model) core.Labeling {
	return solveAlphaExpansion(m, true)
}

// SolveAlphaExpansionPostHocMutex is the ablation variant that ignores the
// mutex constraint during expansion moves (plain minimum cuts) and leaves
// all mutex violations to the per-table post-processing repair.
func SolveAlphaExpansionPostHocMutex(m *core.Model) core.Labeling {
	return solveAlphaExpansion(m, false)
}

func solveAlphaExpansion(m *core.Model, constrainedMutex bool) core.Labeling {
	mrf := newPairwiseMRF(m, false)
	var mb moveBuffers
	y := mrf.allNA()
	best := mrf.totalEnergy(y, true)

	const maxRounds = 10
	for round := 0; round < maxRounds; round++ {
		improved := false
		for alpha := 0; alpha < mrf.labels; alpha++ {
			cand := expansionMove(mrf, y, alpha, constrainedMutex, &mb)
			if e := mrf.totalEnergy(cand, true); e < best-1e-9 {
				y, best = cand, e
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return repairTableConstraints(m, mrf.toLabeling(y))
}

// cutEdge is one pairwise term of an expansion move's cut graph.
type cutEdge struct {
	u, v int
	cap  float64
}

// moveBuffers hold the per-move arrays of one α-expansion solve, reused
// across its moves.
type moveBuffers struct {
	cost0, cost1 []float64
	cutEdges     []cutEdge
	sEdge        map[int]int
}

// expansionMove computes the optimal (or, under the mutex constraint,
// 2-approximate) α-move from labeling y via a graph cut. Variables on the
// t side of the cut switch to α. Move-local arrays come from sc.
func expansionMove(p *pairwiseMRF, y []int, alpha int, constrainedMutex bool, sc *moveBuffers) []int {
	n := p.nVars
	// Node ids: s=0, t=1, variable u -> 2+u.
	const s, t = 0, 1
	node := func(u int) int { return 2 + u }

	sc.cost0 = slicex.Grow(sc.cost0, n)
	sc.cost1 = slicex.Grow(sc.cost1, n)
	cost0 := sc.cost0 // energy contribution when u keeps y[u]
	cost1 := sc.cost1 // energy contribution when u switches to α
	for u := 0; u < n; u++ {
		cost0[u] = p.unary[u][y[u]]
		cost1[u] = p.unary[u][alpha]
		if y[u] == alpha {
			// A variable already labeled α must stay on the t side so the
			// constrained cut's per-table groups count it.
			cost0[u] = graph.Inf
		}
	}

	cutEdges := sc.cutEdges[:0]
	for _, e := range p.edges {
		a := p.pairEnergy(e, y[e.u], y[e.v]) // E00
		b := p.pairEnergy(e, y[e.u], alpha)  // E01
		c := p.pairEnergy(e, alpha, y[e.v])  // E10
		d := p.pairEnergy(e, alpha, alpha)   // E11
		// Decompose (Kolmogorov-Zabih): const a; (c-a)·xu; (d-c)·xv;
		// (b+c-a-d)·(1-xu)xv.
		if diff := c - a; diff >= 0 {
			cost1[e.u] = satAdd(cost1[e.u], diff)
		} else {
			cost0[e.u] = satAdd(cost0[e.u], -diff)
		}
		if diff := d - c; diff >= 0 {
			cost1[e.v] = satAdd(cost1[e.v], diff)
		} else {
			cost0[e.v] = satAdd(cost0[e.v], -diff)
		}
		pw := satAdd(b, c) - satAdd(a, d)
		if pw > 1e-12 {
			cutEdges = append(cutEdges, cutEdge{e.u, e.v, pw})
		}
	}
	sc.cutEdges = cutEdges

	g := graph.NewFlowGraph(2 + n)
	if sc.sEdge == nil {
		sc.sEdge = make(map[int]int, n)
	}
	clear(sc.sEdge)
	sEdge := sc.sEdge
	for u := 0; u < n; u++ {
		shift := cost0[u]
		if cost1[u] < shift {
			shift = cost1[u]
		}
		sEdge[node(u)] = g.AddEdge(s, node(u), satSub(cost1[u], shift))
		g.AddEdge(node(u), t, satSub(cost0[u], shift))
	}
	for _, ce := range cutEdges {
		g.AddEdge(node(ce.u), node(ce.v), ce.cap)
	}

	var tSide []bool
	if alpha < p.q && constrainedMutex {
		// Mutex: at most one column per table may switch to a query label.
		var groups [][]int
		for ti := range p.varOf {
			if len(p.varOf[ti]) < 2 {
				continue
			}
			grp := make([]int, len(p.varOf[ti]))
			for i, u := range p.varOf[ti] {
				grp[i] = node(u)
			}
			groups = append(groups, grp)
		}
		tSide = graph.ConstrainedMinCut(g, s, t, groups, sEdge)
	} else {
		g.MaxFlow(s, t)
		sSide := g.SSide(s)
		tSide = make([]bool, len(sSide))
		for i, b := range sSide {
			tSide[i] = !b
		}
	}

	out := append([]int(nil), y...)
	for u := 0; u < n; u++ {
		if tSide[node(u)] {
			out[u] = alpha
		}
	}
	return out
}

// satAdd adds with saturation at graph.Inf.
func satAdd(a, b float64) float64 {
	s := a + b
	if s > graph.Inf {
		return graph.Inf
	}
	return s
}

// satSub subtracts, treating Inf - x as Inf.
func satSub(a, b float64) float64 {
	if a >= graph.Inf {
		return graph.Inf
	}
	return a - b
}
