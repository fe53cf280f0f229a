package graph

import "wwt/internal/slicex"

// Workspace holds the reusable backing state of assignment solves: the
// MCMF network, its shortest-path scratch, the exact kernel's DP tables,
// and the matching/max-marginal output buffers. The query pipeline runs
// thousands of small solves per query; solving through a Workspace makes
// the steady-state allocation cost of each solve zero.
//
// The zero value is ready to use. A Workspace is single-owner state (one
// goroutine at a time): the Assignment returned by SolveAssignmentWS —
// including MatchL and anything returned by its MaxMarginals — and the
// labels and flags LabelMAP and MatchCells return alias the workspace and
// are valid only until the workspace's next solve. Callers that retain
// solver output across solves must copy it out first.
type Workspace struct {
	g   MCMF
	asn Assignment

	edgeIDs []int32
	matchL  []int

	// MaxMarginals scratch.
	mu        [][]float64
	muBacking []float64
	resDist   []float64

	// Exact-kernel scratch (small.go): DP layers, per-row best choices,
	// the labeling and matched flags it returns, and the mask bit of each
	// right node and the row runs of a cell grid.
	dp      []float64
	back    []float64
	choice  []int8
	labels  []int
	matched []bool
	bit     []int8
	runs    []int32

	// MCMF fallback inputs built by the kernel's entry points.
	capL, capR []int
	dense      []float64
	rows       [][]float64
}

// reset re-initializes the network to n empty nodes, keeping the backing
// arrays of previous solves.
func (g *MCMF) reset(n int) {
	g.n = n
	g.head = slicex.Grow(g.head, n)
	g.tail = slicex.Grow(g.tail, n)
	for i := 0; i < n; i++ {
		g.head[i] = -1
		g.tail[i] = -1
	}
	g.to = g.to[:0]
	g.capa = g.capa[:0]
	g.cost = g.cost[:0]
	g.next = g.next[:0]
}
