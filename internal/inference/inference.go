package inference

import (
	"fmt"

	"wwt/internal/core"
)

// Algorithm selects a collective inference method.
type Algorithm int

// Available algorithms.
const (
	Independent Algorithm = iota
	TableCentric
	AlphaExpansion
	BP
	TRWS
)

// String names the algorithm as in the paper's Table 2.
func (a Algorithm) String() string {
	switch a {
	case Independent:
		return "None"
	case TableCentric:
		return "Table-centric"
	case AlphaExpansion:
		return "α-exp"
	case BP:
		return "BP"
	case TRWS:
		return "TRWS"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists all methods in Table 2 order.
var Algorithms = []Algorithm{Independent, AlphaExpansion, BP, TRWS, TableCentric}

// Solve runs the chosen algorithm on the model and returns a labeling that
// satisfies all hard constraints. Each call owns its solver state, so
// Solve is safe to run concurrently on one model.
func Solve(m *core.Model, alg Algorithm) core.Labeling {
	switch alg {
	case TableCentric:
		return SolveTableCentric(m)
	case AlphaExpansion:
		return SolveAlphaExpansion(m)
	case BP:
		return SolveBP(m)
	case TRWS:
		return SolveTRWS(m)
	default:
		return SolveIndependent(m)
	}
}
