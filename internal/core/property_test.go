package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wwt/internal/wtable"
)

// randWords builds a small vocabulary-driven phrase.
var propVocab = []string{
	"country", "currency", "population", "name", "year", "height",
	"winner", "company", "price", "area", "state", "city", "band",
}

func phraseFrom(r *rand.Rand, n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = propVocab[r.Intn(len(propVocab))]
	}
	return strings.Join(words, " ")
}

func randTable(r *rand.Rand) *wtable.Table {
	cols := 1 + r.Intn(4)
	t := &wtable.Table{ID: "p"}
	if r.Intn(4) > 0 { // 3/4 of tables have a header
		var hr wtable.Row
		for c := 0; c < cols; c++ {
			hr.Cells = append(hr.Cells, wtable.Cell{Text: phraseFrom(r, 1+r.Intn(2))})
		}
		t.HeaderRows = append(t.HeaderRows, hr)
	}
	rows := 1 + r.Intn(5)
	for i := 0; i < rows; i++ {
		var br wtable.Row
		for c := 0; c < cols; c++ {
			br.Cells = append(br.Cells, wtable.Cell{Text: phraseFrom(r, 1)})
		}
		t.BodyRows = append(t.BodyRows, br)
	}
	if r.Intn(2) == 0 {
		t.Context = []wtable.Snippet{{Text: phraseFrom(r, 4), Score: r.Float64()}}
	}
	return t
}

// TestSegScoresBoundedQuick: SegSim and Cover stay within [0, 1+eps] for
// arbitrary tables and queries (both are convex combinations of cosines
// and soft-maxed reliabilities, all bounded by 1).
func TestSegScoresBoundedQuick(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := randTable(r)
		v := NewTableView(tb, nil)
		qc := AnalyzeQuery([]string{phraseFrom(r, 1+r.Intn(3))}, constStats{})
		for c := 0; c < v.NumCols; c++ {
			seg, cov := scores(&qc[0], v, c, p)
			if seg < 0 || seg > 1+1e-9 || cov < 0 || cov > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCoverMonotoneInHeaderQuick: adding a query token to a column's
// header never decreases Cover (more of the query mass is pinnable).
func TestCoverMonotoneInHeaderQuick(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := randTable(r)
		if len(tb.HeaderRows) == 0 || tb.NumCols() == 0 {
			return true
		}
		query := phraseFrom(r, 2+r.Intn(2))
		qc := AnalyzeQuery([]string{query}, constStats{})
		if len(qc[0].Tokens) == 0 {
			return true
		}
		c := r.Intn(tb.NumCols())
		v1 := NewTableView(tb, nil)
		_, cov1 := scores(&qc[0], v1, c, p)

		// Append a query word to the header of column c.
		queryWord := strings.Fields(query)[0]
		tb.HeaderRows[0].Cells[c].Text += " " + queryWord
		v2 := NewTableView(tb, nil)
		_, cov2 := scores(&qc[0], v2, c, p)
		return cov2 >= cov1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUnsegmentedNeverExceedsOneQuick bounds the §5.2 comparison model.
func TestUnsegmentedNeverExceedsOneQuick(t *testing.T) {
	p := DefaultParams()
	p.Unsegmented = true
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := randTable(r)
		v := NewTableView(tb, nil)
		qc := AnalyzeQuery([]string{phraseFrom(r, 1+r.Intn(3))}, constStats{})
		for c := 0; c < v.NumCols; c++ {
			seg, cov := scores(&qc[0], v, c, p)
			if seg < 0 || seg > 1+1e-9 || cov < 0 || cov > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestModelScoreFiniteForFeasibleQuick: any labeling built by per-table
// MAP has a finite objective.
func TestModelScoreFiniteForFeasibleQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tables []*wtable.Table
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			tb := randTable(r)
			tb.ID = string(rune('a' + i))
			tables = append(tables, tb)
		}
		b := &Builder{Params: DefaultParams(), Stats: constStats{}}
		m := b.Build([]string{phraseFrom(r, 2), phraseFrom(r, 1)}, tables)
		// All-nr is always feasible.
		l := NewLabeling(2, m.Cols())
		s := m.Score(l)
		return s == s && s > -1e17 // finite, not -Inf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTableRelevanceBounds: R ∈ [0,1] whenever covers are in [0,1].
func TestTableRelevanceBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := 1 + r.Intn(3)
		nc := 1 + r.Intn(4)
		cover := make([][]Features, nc)
		for c := range cover {
			cover[c] = make([]Features, q)
			for ell := range cover[c] {
				cover[c][ell].Cover = r.Float64()
			}
		}
		rel := tableRelevance(cover, q)
		return rel >= 0 && rel <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReweightMatchesFreshBuild: Reweight must agree with a from-scratch
// build at the same parameters (same nodes, confidences and edges).
func TestReweightMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var tables []*wtable.Table
	for i := 0; i < 4; i++ {
		tb := randTable(r)
		tb.ID = string(rune('a' + i))
		tables = append(tables, tb)
	}
	q := []string{"country name", "currency"}
	base := DefaultParams()
	b := &Builder{Params: base, Stats: constStats{}}
	m := b.Build(q, tables)

	p2 := base
	p2.W2 *= 0.5
	p2.W5 = -1.0
	p2.We *= 2
	rew := m.Reweight(p2)
	b2 := &Builder{Params: p2, Stats: constStats{}}
	fresh := b2.Build(q, tables)

	for ti := range fresh.Node {
		for c := range fresh.Node[ti] {
			for l := range fresh.Node[ti][c] {
				if diff := fresh.Node[ti][c][l] - rew.Node[ti][c][l]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("node potential mismatch at %d/%d/%d: %f vs %f",
						ti, c, l, fresh.Node[ti][c][l], rew.Node[ti][c][l])
				}
			}
		}
	}
	if len(fresh.Edges) != len(rew.Edges) {
		t.Fatalf("edge count mismatch: %d vs %d", len(fresh.Edges), len(rew.Edges))
	}
}

// TestPartMatchesConsistency: PartMatches must agree with segScores on
// whether a positive pin exists.
func TestPartMatchesConsistency(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := randTable(r)
		v := NewTableView(tb, nil)
		qc := AnalyzeQuery([]string{phraseFrom(r, 2)}, constStats{})
		for c := 0; c < v.NumCols; c++ {
			rep := PartMatches(&qc[0], v, c)
			seg, _ := scores(&qc[0], v, c, p)
			if !rep.AnyInSim && seg > 0 {
				return false // SegSim requires a header pin
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
