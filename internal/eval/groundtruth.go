// Package eval implements the paper's evaluation methodology (§5): ground
// truth derivation from the generator's ledger, the F1 error measure, the
// easy/hard query split, the seven difficulty groups binned on Basic's
// error, and the drivers that regenerate every table and figure.
package eval

import (
	"wwt/internal/core"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// GroundTruth is the correct labeling of a candidate set for one query.
type GroundTruth struct {
	Q int
	// Labels[tableID][col] is the true label (0..q-1, na, nr).
	Labels map[string][]int
	// Relevant[tableID] mirrors the all-Irr semantics of the labels.
	Relevant map[string]bool
}

// TruthFor derives ground truth structurally from the generator ledger:
// a table is relevant to a query iff its columns include the first query
// attribute and at least MinMatch query attributes overall; its mapped
// columns take the corresponding query labels, other columns na. Tables
// outside the ledger (or missing the requirement) are all-nr.
func TruthFor(q workload.Query, tables []*wtable.Table, ledger map[string][]string) GroundTruth {
	gt := GroundTruth{
		Q:        q.Q(),
		Labels:   make(map[string][]int, len(tables)),
		Relevant: make(map[string]bool, len(tables)),
	}
	for _, tb := range tables {
		ncols := tb.NumCols()
		labels := make([]int, ncols)
		keys, known := ledger[tb.ID]
		mapped := 0
		hasFirst := false
		if known {
			for c := 0; c < ncols && c < len(keys); c++ {
				labels[c] = core.NA(gt.Q)
				for ell, qk := range q.Keys {
					if keys[c] == qk && qk != "" {
						labels[c] = ell
						mapped++
						if ell == 0 {
							hasFirst = true
						}
						break
					}
				}
			}
			for c := len(keys); c < ncols; c++ {
				labels[c] = core.NA(gt.Q)
			}
		}
		if !known || !hasFirst || mapped < core.MinMatch(q.Q()) {
			for c := range labels {
				labels[c] = core.NR(gt.Q)
			}
			gt.Relevant[tb.ID] = false
		} else {
			gt.Relevant[tb.ID] = true
		}
		gt.Labels[tb.ID] = labels
	}
	return gt
}

// Labeling materializes the ground truth as a core.Labeling over the given
// candidate order.
func (gt GroundTruth) Labeling(tables []*wtable.Table) core.Labeling {
	cols := make([]int, len(tables))
	for i, tb := range tables {
		cols[i] = tb.NumCols()
	}
	l := core.NewLabeling(gt.Q, cols)
	for i, tb := range tables {
		if labels, ok := gt.Labels[tb.ID]; ok {
			copy(l.Y[i], labels)
		}
	}
	return l
}

// RelevantCount returns the number of relevant candidates.
func (gt GroundTruth) RelevantCount() int {
	n := 0
	for _, r := range gt.Relevant {
		if r {
			n++
		}
	}
	return n
}

// F1Error computes the paper's error measure (§5):
//
//	error = 100 · (1 − 2·Σ[[y=y* ∧ y∈1..q]] / (Σ[[y∈1..q]] + Σ[[y*∈1..q]]))
//
// over all (table, column) pairs. When neither prediction nor truth maps
// any column the error is 0 (nothing to get wrong).
func F1Error(pred core.Labeling, tables []*wtable.Table, gt GroundTruth) float64 {
	q := gt.Q
	var correct, predicted, gold int
	for ti, tb := range tables {
		truth := gt.Labels[tb.ID]
		for c := 0; c < tb.NumCols(); c++ {
			var py, gy int = core.NR(q), core.NR(q)
			if ti < len(pred.Y) && c < len(pred.Y[ti]) {
				py = pred.Y[ti][c]
			}
			if c < len(truth) {
				gy = truth[c]
			}
			pReal := py >= 0 && py < q
			gReal := gy >= 0 && gy < q
			if pReal {
				predicted++
			}
			if gReal {
				gold++
			}
			if pReal && gReal && py == gy {
				correct++
			}
		}
	}
	if predicted+gold == 0 {
		return 0
	}
	return 100 * (1 - 2*float64(correct)/float64(predicted+gold))
}

// RowSetError compares two consolidated answers by their row key sets (the
// first-column values), as in Fig. 6: the F1 error of predicted rows
// against the rows of the true-mapping consolidation.
func RowSetError(pred, truth []string) float64 {
	if len(pred)+len(truth) == 0 {
		return 0
	}
	set := make(map[string]bool, len(truth))
	for _, k := range truth {
		set[k] = true
	}
	correct := 0
	seen := make(map[string]bool, len(pred))
	for _, k := range pred {
		if set[k] && !seen[k] {
			correct++
			seen[k] = true
		}
	}
	return 100 * (1 - 2*float64(correct)/float64(len(pred)+len(truth)))
}
