package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wwt/internal/graph"
	"wwt/internal/wtable"
)

// tableMaxMarginalsRef is the stage-1 max-marginal solve as the MCMF
// reduction computes it: columns of capacity 1 against q labels of
// capacity 1 plus na of capacity nt, max-marginals off the residual graph
// (§4.2.3, Fig. 3). It is the oracle of the exact kernel behind
// tableMaxMarginals.
func tableMaxMarginalsRef(m *Model, ti int) [][]float64 {
	q := m.NumQ
	nt := m.Views[ti].NumCols
	node := m.Node[ti]
	capR := ones(q + 1)
	capR[q] = nt
	w := make([][]float64, nt)
	var nrScore float64
	for c := range w {
		w[c] = node[c][:q+1]
		nrScore += node[c][NR(q)]
	}
	mm := graph.SolveAssignment(ones(nt), capR, w).MaxMarginals()
	out := make([][]float64, nt)
	for c := range out {
		out[c] = append(append([]float64(nil), mm[c]...), nrScore)
	}
	return out
}

// TestTableMaxMarginalsMatchMCMF builds models over random tables, widths
// one to four and queries of one to four columns, and demands every
// stage-1 max-marginal within 1e-9 of the MCMF reduction's, and the
// confidence of every column on the same side of the edge gate.
func TestTableMaxMarginalsMatchMCMF(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		tables := make([]*wtable.Table, 1+r.Intn(4))
		for i := range tables {
			tables[i] = randTable(r)
			tables[i].ID = fmt.Sprintf("t%d", i)
		}
		cols := make([]string, 1+r.Intn(4))
		for i := range cols {
			cols[i] = phraseFrom(r, 1+r.Intn(2))
		}
		m := buildTestModel(t, cols, tables)
		gate := confidenceThreshold
		for ti := range m.Views {
			got := m.tableMaxMarginals(ti, &BuildScratch{})
			want := tableMaxMarginalsRef(m, ti)
			dist := make([]float64, NumLabels(m.NumQ))
			for c := range want {
				for label := range want[c] {
					if math.Abs(got[c][label]-want[c][label]) > 1e-9 {
						t.Fatalf("trial %d table %d: mu[%d][%d] = %v, MCMF %v",
							trial, ti, c, label, got[c][label], want[c][label])
					}
				}
				softmaxInto(dist, want[c])
				conf := 0.0
				for label := 0; label < m.NumQ; label++ {
					conf = max(conf, dist[label])
				}
				if (conf > gate) != (m.Conf[ti][c] > gate) {
					t.Fatalf("trial %d table %d col %d: confidence %v crosses the gate against MCMF's %v",
						trial, ti, c, m.Conf[ti][c], conf)
				}
			}
		}
	}
}
