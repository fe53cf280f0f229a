package inference

import "wwt/internal/core"

// The edge-centric algorithms (α-expansion, BP, TRWS) operate on a
// pairwise MRF in energy form (minimization; energy = -potential).
// Cross-table edges carry the (negated) Eq. 4 potential; within-table
// pairs encode the all-Irr constraint (Eq. 11) and — for the
// message-passing methods only — the mutex constraint, both as large
// finite penalties.

// bigEnergy encodes a violated hard constraint. Large enough to dominate
// any sum of real potentials, small enough that sums of many penalties
// stay far from overflow.
const bigEnergy = 1e6

type edgeKind uint8

const (
	crossEdge edgeKind = iota // cross-table content-overlap edge
	intraEdge                 // within-table constraint edge
)

type mrfEdge struct {
	u, v      int
	kind      edgeKind
	coef      float64 // cross edges: Eq. 4 coefficient
	includeNR bool    // plain-Potts ablation: reward shared nr too
}

// pairwiseMRF is the flattened variable/edge view of a core.Model.
type pairwiseMRF struct {
	m         *core.Model
	q         int
	labels    int // q+2
	nVars     int
	varOf     [][]int // [table][col] -> var
	tableOf   []int   // var -> table
	colOf     []int   // var -> col
	unary     [][]float64
	edges     []mrfEdge
	nbrs      [][]int // var -> edge indices
	withMutex bool    // encode mutex as pairwise penalties
}

// newPairwiseMRF flattens a model into its pairwise energy form; the
// result owns its storage. Variables, unaries, edges and adjacency each
// live in one flat array, so a solve's sweeps walk contiguous memory.
func newPairwiseMRF(m *core.Model, withMutex bool) *pairwiseMRF {
	q := m.NumQ
	p := &pairwiseMRF{m: m, q: q, labels: core.NumLabels(q), withMutex: withMutex}
	nEdges := len(m.Edges)
	for _, v := range m.Views {
		p.nVars += v.NumCols
		nEdges += v.NumCols * (v.NumCols - 1) / 2
	}
	varOfB := make([]int, p.nVars)
	p.varOf = make([][]int, len(m.Views))
	p.tableOf = make([]int, p.nVars)
	p.colOf = make([]int, p.nVars)
	unaryB := make([]float64, p.nVars*p.labels)
	p.unary = make([][]float64, p.nVars)
	u := 0
	for ti, v := range m.Views {
		p.varOf[ti] = varOfB[u : u+v.NumCols : u+v.NumCols]
		for c := 0; c < v.NumCols; c++ {
			p.varOf[ti][c] = u
			p.tableOf[u], p.colOf[u] = ti, c
			row := unaryB[u*p.labels : (u+1)*p.labels : (u+1)*p.labels]
			for label := range row {
				row[label] = -m.Node[ti][c][label]
			}
			p.unary[u] = row
			u++
		}
	}
	// Edge list in the canonical order: cross-table edges first, then the
	// within-table constraint pairs.
	p.edges = make([]mrfEdge, 0, nEdges)
	for _, e := range m.Edges {
		p.edges = append(p.edges, mrfEdge{
			u: p.varOf[e.T1][e.C1], v: p.varOf[e.T2][e.C2],
			kind: crossEdge, coef: e.Coef(), includeNR: e.IncludeNR,
		})
	}
	for ti, v := range m.Views {
		for c1 := 0; c1 < v.NumCols; c1++ {
			for c2 := c1 + 1; c2 < v.NumCols; c2++ {
				p.edges = append(p.edges, mrfEdge{u: p.varOf[ti][c1], v: p.varOf[ti][c2], kind: intraEdge})
			}
		}
	}
	// Adjacency: count degrees, carve per-variable windows of one flat
	// array, then fill in edge order, so each variable lists its edges in
	// edge order.
	deg := make([]int, p.nVars)
	for _, e := range p.edges {
		deg[e.u]++
		deg[e.v]++
	}
	nbrsB := make([]int, 2*len(p.edges))
	p.nbrs = make([][]int, p.nVars)
	off := 0
	for u := range p.nbrs {
		p.nbrs[u] = nbrsB[off : off : off+deg[u]]
		off += deg[u]
	}
	for id, e := range p.edges {
		p.nbrs[e.u] = append(p.nbrs[e.u], id)
		p.nbrs[e.v] = append(p.nbrs[e.v], id)
	}
	return p
}

// pairEnergy evaluates the energy of edge e under labels (lu, lv).
func (p *pairwiseMRF) pairEnergy(e mrfEdge, lu, lv int) float64 {
	nr := core.NR(p.q)
	switch e.kind {
	case crossEdge:
		if lu == lv && (lu != nr || e.includeNR) {
			return -e.coef
		}
		return 0
	default: // intraEdge
		var en float64
		uNR, vNR := lu == nr, lv == nr
		if uNR != vNR {
			en += bigEnergy // all-Irr (Eq. 11)
		}
		if p.withMutex && lu == lv && lu < p.q {
			en += bigEnergy // mutex as a dissociative pairwise penalty
		}
		return en
	}
}

// totalEnergy evaluates a flat labeling; when checkMutex is set the mutex
// constraint is charged even for MRFs that do not encode it in edges
// (α-expansion's acceptance test).
func (p *pairwiseMRF) totalEnergy(y []int, checkMutex bool) float64 {
	var e float64
	for u := 0; u < p.nVars; u++ {
		e += p.unary[u][y[u]]
	}
	for _, ed := range p.edges {
		e += p.pairEnergy(ed, y[ed.u], y[ed.v])
	}
	if checkMutex && !p.withMutex {
		for ti := range p.varOf {
			seen := make(map[int]bool)
			for _, u := range p.varOf[ti] {
				l := y[u]
				if l < p.q {
					if seen[l] {
						e += bigEnergy
					}
					seen[l] = true
				}
			}
		}
	}
	return e
}

// toLabeling converts a flat assignment into a core.Labeling.
func (p *pairwiseMRF) toLabeling(y []int) core.Labeling {
	l := core.NewLabeling(p.q, p.m.Cols())
	for u := 0; u < p.nVars; u++ {
		l.Y[p.tableOf[u]][p.colOf[u]] = y[u]
	}
	return l
}

// allNA returns the α-expansion initial labeling (all variables na, §4.3).
func (p *pairwiseMRF) allNA() []int {
	y := make([]int, p.nVars)
	for i := range y {
		y[i] = core.NA(p.q)
	}
	return y
}
