package inference

import "wwt/internal/graph"

// Scratch is the reusable arena of the two solves the engine runs per
// query: the assignment workspace and weight grids behind the per-table
// §4.1 solves (Independent), and the table-centric message and
// boosted-node buffers. The zero value is ready to use.
//
// A Scratch is single-owner state: one solve at a time. Only the returned
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
}
