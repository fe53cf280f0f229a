package inference

import (
	"wwt/internal/core"
	"wwt/internal/slicex"
)

// tieBreakMsg scales the small additive share of the neighbor message kept
// on top of the paper's max(msg, θ): max() alone cannot break exact node
// ties (two query columns sharing their dominant keyword), whereas content
// overlap can. The term is an order of magnitude below typical potentials,
// so non-tied decisions are unaffected. This is a deliberate deviation
// from the literal §4.2 formula, and this comment is its documentation.
const tieBreakMsg = 0.1

// SolveTableCentric implements the paper's table-centric collective
// inference (§4.2) in three stages:
//
//  1. Per table, compute max-marginals µ_tc(ℓ) under mutex + all-Irr and
//     normalize them into distributions p_tc(ℓ). (The model precomputes
//     these — they also gate the edges.)
//  2. Each column collects messages from its neighbors:
//     msg(tc,ℓ) = Σ_{t'c' ∈ nbr(tc)} we·nsim(tc,t'c')·p_{t'c'}(ℓ).
//  3. Per table, re-run the §4.1 matching with node potentials
//     max(msg(tc,ℓ), θ(tc,ℓ)) + tieBreakMsg·msg(tc,ℓ).
//
// Stage 2 only strengthens real query-column labels: edges exist to
// transfer column identities, never to spread irrelevance.
func SolveTableCentric(m *core.Model) core.Labeling {
	return new(Scratch).TableCentric(m)
}

// TableCentric is SolveTableCentric out of the arena s: a warm arena runs
// the solve without reallocating its message grid, node grid or per-table
// solver state.
func (s *Scratch) TableCentric(m *core.Model) core.Labeling {
	q := m.NumQ
	// Stage 2: messages, accumulated into one cleared flat grid over
	// (global column, query label).
	nVars := 0
	for _, v := range m.Views {
		nVars += v.NumCols
	}
	s.msgB = slicex.GrowClear(s.msgB, nVars*q)
	s.msgRows = slicex.Grow(s.msgRows, nVars)
	s.msgTab = slicex.Grow(s.msgTab, len(m.Views))
	msg := s.msgTab
	gc := 0
	for ti, v := range m.Views {
		nt := v.NumCols
		msg[ti] = s.msgRows[gc : gc+nt : gc+nt]
		for c := 0; c < nt; c++ {
			s.msgRows[gc+c] = s.msgB[(gc+c)*q : (gc+c+1)*q : (gc+c+1)*q]
		}
		gc += nt
	}
	for _, e := range m.Edges {
		for ell := 0; ell < q; ell++ {
			// WAB already folds in we, nsim(A,B) and B's confidence gate.
			msg[e.T1][e.C1][ell] += e.WAB * m.Dist[e.T2][e.C2][ell]
			msg[e.T2][e.C2][ell] += e.WBA * m.Dist[e.T1][e.C1][ell]
		}
	}

	// Stage 3: re-solve each table with boosted potentials.
	l := core.NewLabeling(q, m.Cols())
	labels := core.NumLabels(q)
	for ti, v := range m.Views {
		nt := v.NumCols
		s.nodeB = slicex.Grow(s.nodeB, nt*labels)
		s.node = slicex.Grow(s.node, nt)
		node := s.node
		for c := 0; c < nt; c++ {
			row := s.nodeB[c*labels : (c+1)*labels : (c+1)*labels]
			node[c] = row
			copy(row, m.Node[ti][c])
			for ell := 0; ell < q; ell++ {
				// A zero message means "no neighbor evidence" and must not
				// override a (possibly negative) node potential.
				mv := msg[ti][c][ell]
				if mv <= 0 {
					continue
				}
				if mv > row[ell] {
					row[ell] = mv
				}
				row[ell] += tieBreakMsg * mv
			}
		}
		solveTableMAPInto(m, ti, node, l.Y[ti], s)
	}
	return l
}
