package inference

import "wwt/internal/graph"

// Scratch is the reusable arena of the inference stage: the assignment
// workspace and weight grids behind the per-table §4.1 solves, the
// table-centric message and boosted-node buffers, and the pairwise-MRF
// storage (variables, unaries, edges, edge messages) the edge-centric
// algorithms run on. The zero value is ready to use.
//
// A Scratch is single-owner state: one Solve at a time. Only the returned
// Labeling survives a solve — it is always freshly allocated — so a
// Scratch may be reused as soon as the previous call returns, and pooled
// and fresh scratches produce bit-identical labelings.
type Scratch struct {
	ws graph.Workspace

	// Per-table §4.1 labeling weights (solveTableMAPInto).
	w  [][]float64
	wB []float64

	// Table-centric neighbor messages and boosted node grid.
	msgB    []float64
	msgRows [][]float64
	msgTab  [][][]float64
	nodeB   []float64
	node    [][]float64

	// Pairwise MRF (α-expansion, BP, TRWS).
	mrf     pairwiseMRF
	varOfB  []int
	varOf   [][]int
	tableOf []int
	colOf   []int
	unaryB  []float64
	unary   [][]float64
	edges   []mrfEdge
	deg     []int
	nbrsB   []int
	nbrs    [][]int

	// Message passing (BP, TRWS).
	emsgB   []float64
	emsg    [][]float64
	h       []float64
	newMsg  []float64
	gamma   []float64
	y       []int
	decided []bool

	// α-expansion moves.
	cost0, cost1 []float64
	cutEdges     []cutEdge
	sEdge        map[int]int
}
