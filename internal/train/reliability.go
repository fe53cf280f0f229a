package train

import (
	"wwt/internal/core"
	"wwt/internal/eval"
)

// Reliabilities holds the measured outSim part reliabilities p_i of
// §3.2.1 for parts T (title), C (context), Hc (other header rows), Hr
// (other columns' headers) and B (frequent body content).
type Reliabilities struct {
	Title, Context, OtherHeaderRow, OtherHeaderCol, Body float64
	// Support counts how many (column, part) observations backed each
	// estimate, in the same order.
	Support [5]int
}

// MeasureReliabilities implements the paper's estimation procedure: for
// each part i, the reliability p_i is the fraction of correctly matched
// columns among all columns with positive inSim and a positive match with
// part i, measured against ground truth over the training workload. The
// paper reports (1.0, 0.9, 0.5, 1.0, 0.8) on its corpus. It reads only
// the views and the analyzed query, so each model is built without its
// edges, in one arena reused query by query.
func MeasureReliabilities(r *eval.Runner, base core.Params) Reliabilities {
	var correct, total [5]int
	b := &core.Builder{Params: base, Stats: r.Engine.Searcher(), PMI: r.Engine.Searcher()}
	var s core.BuildScratch
	for _, q := range r.Queries {
		tables, gt := r.CandidatesFor(q)
		m := b.BuildTables(q.Columns, tables, &s)
		for ti, v := range m.Views {
			truth := gt.Labels[tables[ti].ID]
			for c := 0; c < v.NumCols; c++ {
				for ell := 0; ell < m.NumQ; ell++ {
					parts := core.PartMatches(&m.Q[ell], v, c)
					if !parts.AnyInSim {
						continue
					}
					isCorrect := c < len(truth) && truth[c] == ell
					for pi, hit := range parts.Parts {
						if hit {
							total[pi]++
							if isCorrect {
								correct[pi]++
							}
						}
					}
				}
			}
		}
	}
	frac := func(i int) float64 {
		if total[i] == 0 {
			return 0
		}
		return float64(correct[i]) / float64(total[i])
	}
	return Reliabilities{
		Title:          frac(0),
		Context:        frac(1),
		OtherHeaderRow: frac(2),
		OtherHeaderCol: frac(3),
		Body:           frac(4),
		Support:        total,
	}
}
