package inference

import (
	"math/rand"
	"slices"
	"testing"

	"wwt/internal/core"
	"wwt/internal/graph"
)

// solveTableMAPRef is the §4.1 table-local solve as the MCMF reduction
// computes it: capacity-1 label nodes, na of capacity nt-m, the M1 boost
// on the first query column, then the comparison against all-nr. It is
// the oracle of the exact kernel behind solveTableMAPInto.
func solveTableMAPRef(m *core.Model, node [][]float64) []int {
	q := m.NumQ
	nt := len(node)
	mm := core.MinMatch(q)
	dst := make([]int, nt)
	var nrScore float64
	for c := range node {
		nrScore += node[c][core.NR(q)]
		dst[c] = core.NR(q)
	}
	if nt < mm {
		return dst
	}
	capL, capR := make([]int, nt), make([]int, q+1)
	for i := range capL {
		capL[i] = 1
	}
	for j := range capR {
		capR[j] = 1
	}
	capR[q] = nt - mm
	w := make([][]float64, nt)
	for c := range w {
		w[c] = append([]float64(nil), node[c][:q+1]...)
		w[c][0] += mustMatchBoost
	}
	sol := graph.SolveAssignment(capL, capR, w)
	if sol.Total-mustMatchBoost <= nrScore {
		return dst
	}
	for c, j := range sol.MatchL {
		if j < 0 || j == q {
			dst[c] = core.NA(q)
		} else {
			dst[c] = j
		}
	}
	return dst
}

// TestTableMAPMatchesMCMF drives solveTableMAPInto and the MCMF reduction
// over random tables. One third of the potentials mimic the trained ones:
// a strong negative bias lifted by coverage on a coarse grid, na at zero,
// a small non-negative nr. Another third sit on a grid of tenths, which
// binary floats round, so a labeling and all-nr often tie in exact
// arithmetic and differ only by summation order. Labels must agree on
// every table.
func TestTableMAPMatchesMCMF(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var s Scratch
	for trial := 0; trial < 6000; trial++ {
		q, nt := 1+r.Intn(4), 1+r.Intn(7)
		node := make([][]float64, nt)
		for c := range node {
			node[c] = make([]float64, core.NumLabels(q))
			for ell := 0; ell < q; ell++ {
				switch trial % 3 {
				case 0:
					node[c][ell] = -5.5 + 8*float64(r.Intn(5))/4
				case 1:
					node[c][ell] = float64(r.Intn(21)-10) / 10
				default:
					node[c][ell] = r.NormFloat64() * 2
				}
			}
			node[c][core.NR(q)] = float64(r.Intn(3)) / 4
			if trial%3 == 1 {
				node[c][core.NR(q)] = float64(r.Intn(6)) / 10
			}
		}
		m := &core.Model{
			Params: core.DefaultParams(),
			NumQ:   q,
			Views:  []*core.TableView{{NumCols: nt}},
			Node:   [][][]float64{node},
		}
		got := make([]int, nt)
		solveTableMAPInto(m, 0, node, got, &s)
		if want := solveTableMAPRef(m, node); !slices.Equal(got, want) {
			t.Fatalf("trial %d q=%d node=%v: labels %v, MCMF %v", trial, q, node, got, want)
		}
	}
}
