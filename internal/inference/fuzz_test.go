package inference

import (
	"fmt"
	"math"
	"testing"

	"wwt/internal/wtable"
)

// fuzzVocab is the tiny vocabulary fuzzWorld draws query keywords,
// headers, cells and context from, so tables often share content and the
// builder adds cross-table edges.
var fuzzVocab = []string{"country", "currency", "france", "euro", "japan", "yen", "code", "rate"}

// fuzzWorld decodes data into a query of one or two columns and one to
// three tables of at most six columns in all, each table with optional
// headers and context. Bytes past the end of data read as zero, so every
// input decodes.
func fuzzWorld(data []byte) (query []string, tables []*wtable.Table) {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	word := func() string { return fuzzVocab[next(len(fuzzVocab))] }

	for i := 1 + next(2); i > 0; i-- {
		col := word()
		if next(2) == 1 {
			col += " " + word()
		}
		query = append(query, col)
	}
	budget := 6
	for ti := 1 + next(3); ti > 0 && budget > 0; ti-- {
		ncols := min(1+next(3), budget)
		budget -= ncols
		var headers []string
		if next(2) == 1 {
			for c := 0; c < ncols; c++ {
				headers = append(headers, word())
			}
		}
		body := make([][]string, 1+next(3))
		for r := range body {
			for c := 0; c < ncols; c++ {
				body[r] = append(body[r], word())
			}
		}
		context := ""
		if next(2) == 1 {
			context = word() + " " + word()
		}
		tables = append(tables, table(fmt.Sprintf("t%d", len(tables)), headers, body, context))
	}
	return query, tables
}

// FuzzInferenceFeasible checks every algorithm against the exact optimum
// of Model.Score on small random models: each returns a feasible labeling
// (finite score, Eq. 5-8 hold) that never scores above the optimum, and
// on a model without cross-table edges every one of them reaches it: the
// tables are then independent, and the optimum is each table's own MAP.
func FuzzInferenceFeasible(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 2, 1, 0, 1, 1, 2, 3, 4, 5, 2, 3, 4, 5, 1, 0, 1, 1, 2, 1, 2, 3, 4, 5, 2, 3, 4, 5})
	f.Add([]byte{1, 0, 0, 1, 2, 2, 1, 1, 1, 0, 1, 6, 7, 1, 3, 4, 5, 2, 1, 0, 1, 3, 2, 5, 4, 2, 2, 2})
	f.Add([]byte{0, 3, 0, 2, 2, 0, 2, 2, 3, 0, 1, 7, 6, 2, 3, 4, 5, 6, 7, 0, 0, 2, 2, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		query, tables := fuzzWorld(data)
		m := build(t, query, tables)
		opt := bruteForceMAP(m)
		tol := 1e-9 * math.Max(1, math.Abs(opt))
		for _, alg := range Algorithms {
			l := Solve(m, alg)
			s := m.Score(l)
			if math.IsInf(s, 0) || math.IsNaN(s) {
				t.Fatalf("%s: infeasible labeling %v (score %v)", alg, l.Y, s)
			}
			if s > opt+tol {
				t.Fatalf("%s: score %v above the exact optimum %v (labeling %v)", alg, s, opt, l.Y)
			}
			if len(m.Edges) == 0 && s < opt-tol {
				t.Fatalf("%s: score %v below the optimum %v of an edge-free model (labeling %v)", alg, s, opt, l.Y)
			}
		}
	})
}
