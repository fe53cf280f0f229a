package inference

import (
	"wwt/internal/core"
	"wwt/internal/graph"
	"wwt/internal/slicex"
)

// mustMatchBoost is the large constant M1 of §4.1 added to label-1 edges
// so the highest-scoring relevant labeling always covers the first query
// column. It dwarfs any achievable potential mass (node potentials are
// O(1) per column, tables have tens of columns) without eating the float64
// mantissa — adding 1e7-scale constants to O(1) costs would leave the
// min-cost-flow solver comparing path costs below its noise floor.
const mustMatchBoost = 1e4

// SolveIndependent labels every table independently and optimally (§4.1),
// ignoring cross-table edge potentials.
func SolveIndependent(m *core.Model) core.Labeling {
	return new(Scratch).Independent(m)
}

// Independent is SolveIndependent out of the arena s: a warm arena runs
// the per-table solves without reallocating their weights or workspace.
func (s *Scratch) Independent(m *core.Model) core.Labeling {
	l := core.NewLabeling(m.NumQ, m.Cols())
	for ti := range m.Views {
		solveTableMAPInto(m, ti, m.Node[ti], l.Y[ti], s)
	}
	return l
}

// solveTableMAPInto runs the §4.1 reduction for one table with (possibly
// modified) node potentials, writing the optimal labels into dst (length
// nt, fully overwritten): a generalized bipartite matching with capacity-1
// label nodes, an na node of capacity nt-m, the M1 boost on the first
// query column, and a final comparison against the all-nr labeling. The
// matching is graph.LabelMAP's exact kernel, which hands near-ties to the
// MCMF reduction. All solver state comes from s.
func solveTableMAPInto(m *core.Model, ti int, node [][]float64, dst []int, s *Scratch) {
	q := m.NumQ
	nt := m.Views[ti].NumCols
	mm := core.MinMatch(q)

	var nrScore float64
	for c := 0; c < nt; c++ {
		nrScore += node[c][core.NR(q)]
	}
	allNR := func() {
		for c := range dst {
			dst[c] = core.NR(q)
		}
	}
	// A table narrower than m can never satisfy min-match: irrelevant.
	if nt < mm {
		allNR()
		return
	}

	s.wB = slicex.Grow(s.wB, nt*(q+1))
	s.w = slicex.Grow(s.w, nt)
	w := s.w
	for c := 0; c < nt; c++ {
		w[c] = s.wB[c*(q+1) : (c+1)*(q+1) : (c+1)*(q+1)]
		for j := 0; j < q; j++ {
			w[c][j] = node[c][j]
			if j == 0 {
				w[c][j] += mustMatchBoost
			}
		}
		w[c][q] = node[c][core.NA(q)]
	}
	match, total := graph.LabelMAP(w, q, mm, nrScore+mustMatchBoost, &s.ws)
	relevantScore := total - mustMatchBoost

	if relevantScore <= nrScore {
		allNR()
		return
	}
	for c := 0; c < nt; c++ {
		j := match[c]
		if j < 0 || j == q {
			dst[c] = core.NA(q)
		} else {
			dst[c] = j
		}
	}
}

// repairTableConstraints re-solves any table whose labeling violates a
// hard constraint (used as post-processing by the edge-centric methods,
// §4.3). The repaired labeling is the per-table optimum of the node
// potentials.
func repairTableConstraints(m *core.Model, l core.Labeling) core.Labeling {
	q := m.NumQ
	var s Scratch
	for ti := range m.Views {
		if !tableFeasible(m, ti, l.Y[ti], q) {
			solveTableMAPInto(m, ti, m.Node[ti], l.Y[ti], &s)
		}
	}
	return l
}

// tableFeasible checks all four table constraints for one table.
func tableFeasible(m *core.Model, ti int, labels []int, q int) bool {
	nrCount, realCount := 0, 0
	hasFirst := false
	seen := make(map[int]bool, len(labels))
	for _, y := range labels {
		switch {
		case y == core.NR(q):
			nrCount++
		case y >= 0 && y < q:
			if seen[y] {
				return false // mutex
			}
			seen[y] = true
			realCount++
			if y == 0 {
				hasFirst = true
			}
		}
	}
	if nrCount != 0 && nrCount != len(labels) {
		return false // all-Irr
	}
	if nrCount == 0 {
		if !hasFirst {
			return false // must-match
		}
		if realCount < core.MinMatch(q) {
			return false // min-match
		}
	}
	return true
}
