// Package train finds the six trainable weights of the column mapper
// (w1..w5, we of Eq. 3/4) by exhaustive enumeration over a grid — the
// procedure the paper uses (§3.4: "Since we had only six parameters, we
// were able to find the best values through exhaustive enumeration") —
// and calibrates the Basic baseline's thresholds the same way. Training
// runs on a corpus generated with a *different seed* than evaluation.
package train

import (
	"wwt/internal/baseline"
	"wwt/internal/core"
	"wwt/internal/eval"
	"wwt/internal/inference"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// WeightGrid enumerates candidate values per trainable weight. W1 is
// pinned to 1.0: the objective is invariant to a global rescaling of all
// potentials, so one weight can anchor the scale.
type WeightGrid struct {
	W2, W3, W4, W5, We []float64
}

// DefaultGrid spans the useful ranges at the paper's granularity.
func DefaultGrid() WeightGrid {
	return WeightGrid{
		W2: []float64{8.0, 11.0, 16.0},
		W3: []float64{0.25}, // only active when UsePMI is set
		W4: []float64{0.05, 0.1, 0.2, 0.35},
		W5: []float64{-5.5, -8.0, -11.0},
		We: []float64{2.0, 2.8, 4.0, 5.5},
	}
}

// queryCase caches the per-query model (features are weight-independent).
type queryCase struct {
	query  workload.Query
	tables []*wtable.Table
	gt     eval.GroundTruth
	model  *core.Model
}

// prepare builds one model per workload query with the base params. All
// builds share one view cache: the workload's candidate sets overlap
// heavily, so each table is analyzed, and its strings interned, once
// instead of per query. Interned IDs never reach a float, so the models
// are the ones cacheless builds give.
func prepare(r *eval.Runner, base core.Params) []queryCase {
	cases := make([]queryCase, 0, len(r.Queries))
	b := &core.Builder{Params: base, Stats: r.Engine.Searcher(), PMI: r.Engine.Searcher(), Views: core.NewViewCache()}
	for _, q := range r.Queries {
		tables, gt := r.CandidatesFor(q)
		cases = append(cases, queryCase{
			query: q, tables: tables, gt: gt,
			model: b.Build(q.Columns, tables),
		})
	}
	return cases
}

// Weights exhaustively enumerates the grid and returns the parameter set
// minimizing mean F1 error of the table-centric algorithm over the
// training workload, along with that error.
func Weights(r *eval.Runner, base core.Params, grid WeightGrid) (core.Params, float64) {
	cases := prepare(r, base)
	best := base
	bestErr := evalWeights(cases, base)
	w3s := grid.W3
	if !base.UsePMI {
		w3s = []float64{base.W3}
	}
	for _, w2 := range grid.W2 {
		for _, w3 := range w3s {
			for _, w4 := range grid.W4 {
				for _, w5 := range grid.W5 {
					for _, we := range grid.We {
						p := base
						p.W1, p.W2, p.W3, p.W4, p.W5, p.We = 1.0, w2, w3, w4, w5, we
						if err := evalWeights(cases, p); err < bestErr {
							bestErr = err
							best = p
						}
					}
				}
			}
		}
	}
	return best, bestErr
}

func evalWeights(cases []queryCase, p core.Params) float64 {
	var sum float64
	for i := range cases {
		m := cases[i].model.Reweight(p)
		l := inference.SolveTableCentric(m)
		sum += eval.F1Error(l, cases[i].tables, cases[i].gt)
	}
	return sum / float64(len(cases))
}

// ThresholdGrid enumerates the Basic baseline's thresholds.
type ThresholdGrid struct {
	Relevance, Column []float64
}

// DefaultThresholdGrid spans the plausible cosine ranges.
func DefaultThresholdGrid() ThresholdGrid {
	return ThresholdGrid{
		Relevance: []float64{0.25, 0.33, 0.42, 0.52, 0.62},
		Column:    []float64{0.02, 0.05, 0.10, 0.18, 0.28},
	}
}

// BaselineThresholds calibrates Basic's two thresholds by exhaustive
// enumeration, minimizing mean F1 error over the training workload. The
// candidate views are analyzed once per query and shared across the grid.
func BaselineThresholds(r *eval.Runner, grid ThresholdGrid) (baseline.Config, float64) {
	type tcase struct {
		tables   []*wtable.Table
		gt       eval.GroundTruth
		prepared *baseline.Prepared
	}
	var cases []tcase
	for _, q := range r.Queries {
		tables, gt := r.CandidatesFor(q)
		cases = append(cases, tcase{tables, gt, baseline.Prepare(q.Columns, tables, r.Engine.Searcher())})
	}
	best := baseline.DefaultConfig()
	bestErr := 1e18
	for _, rel := range grid.Relevance {
		for _, col := range grid.Column {
			cfg := baseline.DefaultConfig()
			cfg.RelevanceThreshold = rel
			cfg.ColumnThreshold = col
			var sum float64
			for _, c := range cases {
				l := c.prepared.Solve(baseline.Basic, cfg, nil)
				sum += eval.F1Error(l, c.tables, c.gt)
			}
			if err := sum / float64(len(cases)); err < bestErr {
				bestErr = err
				best = cfg
			}
		}
	}
	return best, bestErr
}
