package core

import (
	"math"
	"strings"
	"testing"

	"wwt/internal/wtable"
)

// constStats gives every token IDF 1, making hand-computation easy.
type constStats struct{}

func (constStats) IDF(string) float64 { return 1 }

func row(texts ...string) wtable.Row {
	cells := make([]wtable.Cell, len(texts))
	for i, t := range texts {
		cells[i] = wtable.Cell{Text: t}
	}
	return wtable.Row{Cells: cells}
}

func table(id string, headerRows [][]string, body [][]string, context string) *wtable.Table {
	t := &wtable.Table{ID: id}
	for _, hr := range headerRows {
		t.HeaderRows = append(t.HeaderRows, row(hr...))
	}
	for _, br := range body {
		t.BodyRows = append(t.BodyRows, row(br...))
	}
	if context != "" {
		t.Context = []wtable.Snippet{{Text: context, Score: 1}}
	}
	return t
}

// testIntern is shared by every view the tests build, so views from
// separate view() calls stay comparable by their cell IDs and HeaderSim.
var testIntern = NewInterner()

func view(t *wtable.Table) *TableView {
	return NewTableView(t, testIntern)
}

// scores runs segScores for qc against column c of v the way a build
// does: header weights under constStats, query tokens looked up in v's
// interner.
func scores(qc *QueryColumn, v *TableView, c int, p Params) (segSim, cover float64) {
	var idf idfMemo
	idf.reset(constStats{})
	var hw headerWeights
	hw.reset(v, &idf)
	return segScores(qc, queryTokensFor(qc, v), v, &hw, c, &p)
}

// queryTokensFor is qc's integer form against v, as a build holds it once
// v is fetched: IDs in v's interner and hit masks over v's header cells.
func queryTokensFor(qc *QueryColumn, v *TableView) *queryTokens {
	var qt queryTokens
	qt.reset(qc.Tokens)
	qt.resolve(qc.Tokens, v.in)
	qt.hits.fill(v, qt.ids)
	return &qt
}

func qcol(s string) *QueryColumn {
	q := AnalyzeQuery([]string{s}, constStats{})
	return &q[0]
}

func TestSegSimExactHeaderMatch(t *testing.T) {
	tb := table("t", [][]string{{"Country", "Currency"}}, [][]string{{"France", "Euro"}}, "")
	v := view(tb)
	seg, cov := scores(qcol("currency"), v, 1, DefaultParams())
	if math.Abs(seg-1) > 1e-9 {
		t.Errorf("SegSim = %f, want 1 for exact header match", seg)
	}
	if math.Abs(cov-1) > 1e-9 {
		t.Errorf("Cover = %f, want 1", cov)
	}
	// The other column must score 0 (no shared token).
	seg0, _ := scores(qcol("currency"), v, 0, DefaultParams())
	if seg0 != 0 {
		t.Errorf("non-matching column SegSim = %f, want 0", seg0)
	}
}

func TestSegSimSplitAcrossHeaderAndContext(t *testing.T) {
	// §3.2.1 first limitation: "Nobel prize" in context, "winner" in
	// header. The segmentation pins "winner" to the header and scores
	// "nobel prize" against the context (reliability 0.9).
	tb := table("t", [][]string{{"winner", "year"}},
		[][]string{{"Marie Curie", "1903"}}, "list of Nobel prize laureates by year")
	v := view(tb)
	p := DefaultParams()
	seg, _ := scores(qcol("nobel prize winner"), v, 0, p)
	// Pin suffix [winner]: inSim vs header {winner} = 1 (both weight 1).
	// Out part [nobel, prize] both in context: each scores 0.9.
	want := (1.0/3)*1 + (2.0/3)*0.9
	if math.Abs(seg-want) > 1e-9 {
		t.Errorf("SegSim = %f, want %f", seg, want)
	}
	// Column "year" shares no token with the query: 0.
	if s, _ := scores(qcol("nobel prize winner"), v, 1, p); s != 0 {
		t.Errorf("year column = %f, want 0", s)
	}
}

func TestSegSimMultiRowHeaderConcatenation(t *testing.T) {
	// Split header "Main areas" / "explored" (Fig. 1 Table 1 col 3): the
	// out part finds "explored" in the other header row (Hc, rel 0.5).
	tb := table("t", [][]string{{"Name", "Main areas"}, {"", "explored"}},
		[][]string{{"Tasman", "Oceania"}}, "")
	v := view(tb)
	seg, _ := scores(qcol("main areas explored"), v, 1, DefaultParams())
	// Pin [main, area] row 0 (inSim=2/(sqrt2*sqrt2)=1), out [explor] in Hc: 0.5.
	want := (2.0/3)*1 + (1.0/3)*0.5
	if math.Abs(seg-want) > 1e-9 {
		t.Errorf("SegSim = %f, want %f", seg, want)
	}
	// Alternative: pin [explor] to row 1 (inSim=1), out [main, area] in Hc 0.5
	// = 1/3 + 2/3*0.5 = 0.666 < want. max picks the better.
}

func TestSegSimSpuriousSecondHeaderRowHarmless(t *testing.T) {
	// Fig. 1 Table 2: second header row "(chronological order)" must not
	// dilute the match of row 1's "Exploration".
	clean := table("a", [][]string{{"Exploration", "Who"}},
		[][]string{{"Oceania", "Tasman"}}, "")
	noisy := table("b", [][]string{{"Exploration", "Who"}, {"chronological order", ""}},
		[][]string{{"Oceania", "Tasman"}}, "")
	q := qcol("exploration")
	segClean, _ := scores(q, view(clean), 0, DefaultParams())
	segNoisy, _ := scores(q, view(noisy), 0, DefaultParams())
	if segNoisy < segClean-1e-9 {
		t.Errorf("spurious header row hurt SegSim: %f < %f", segNoisy, segClean)
	}
}

func TestSegSimFrequentBodyContent(t *testing.T) {
	// "Black metal bands": genre column holds "Black metal" frequently;
	// header of column 0 is "Band name". Out part hits B (rel 0.8).
	tb := table("t", [][]string{{"Band name", "Country", "Genre"}},
		[][]string{
			{"Mayhem", "Norway", "Black metal"},
			{"Darkthrone", "Norway", "Black metal"},
			{"Burzum", "Norway", "Black metal"},
		}, "")
	v := view(tb)
	seg, _ := scores(qcol("black metal bands"), v, 0, DefaultParams())
	// Pin suffix [band] (inSim with {band, name} = 1/sqrt2), out
	// [black, metal] both frequent body tokens: 0.8 each.
	want := (1.0/3)*(1/math.Sqrt2) + (2.0/3)*0.8
	if math.Abs(seg-want) > 1e-9 {
		t.Errorf("SegSim = %f, want %f", seg, want)
	}
}

func TestSegSimCrossColumnHeader(t *testing.T) {
	// "dog breeds" vs table with adjacent headers "dog" | "breed": column
	// "dog" pins [dog], out [breed] in Hr (rel 1.0) → full score.
	tb := table("t", [][]string{{"dog", "breed", "weight"}},
		[][]string{{"Rex", "Beagle", "12"}}, "")
	v := view(tb)
	seg, _ := scores(qcol("dog breeds"), v, 0, DefaultParams())
	want := (1.0/2)*1 + (1.0/2)*1.0
	if math.Abs(seg-want) > 1e-9 {
		t.Errorf("SegSim = %f, want %f", seg, want)
	}
}

func TestSegSimHeaderlessTableZero(t *testing.T) {
	tb := table("t", nil, [][]string{{"France", "Euro"}, {"Japan", "Yen"}}, "currency of countries")
	v := view(tb)
	if seg, cov := scores(qcol("currency"), v, 1, DefaultParams()); seg != 0 || cov != 0 {
		t.Errorf("headerless SegSim/Cover = %f/%f, want 0", seg, cov)
	}
}

func TestSegSimMultipleMatchesDecay(t *testing.T) {
	// A token matching several parts scores 1-Π(1-p) — more than each
	// alone but less than their sum.
	tb := table("t", [][]string{{"winner", "year"}},
		[][]string{{"Curie", "1903"}}, "nobel prize winners")
	tb.TitleRows = []wtable.Row{row("Nobel prize")}
	v := view(tb)
	seg, _ := scores(qcol("nobel prize winner"), v, 0, DefaultParams())
	// [nobel, prize] in both T (1.0) and C (0.9): 1-(0)(0.1) = 1.
	want := (1.0/3)*1 + (2.0/3)*1.0
	if math.Abs(seg-want) > 1e-9 {
		t.Errorf("SegSim = %f, want %f", seg, want)
	}
}

func TestCoverPartialHeaderMatch(t *testing.T) {
	// Cover counts matched token mass; "exchange rate" vs header
	// "exchange" covers half the query mass (pin [exchange], out [rate]
	// matches nothing).
	tb := table("t", [][]string{{"exchange", "country"}},
		[][]string{{"1.07", "France"}}, "")
	v := view(tb)
	_, cov := scores(qcol("exchange rate"), v, 0, DefaultParams())
	if math.Abs(cov-0.5) > 1e-9 {
		t.Errorf("Cover = %f, want 0.5", cov)
	}
}

func TestTableRelevanceClip(t *testing.T) {
	// q=2: threshold 1.5. Sum of best covers 1.0 -> clipped to 0.
	cover := coverFeats([][]float64{{0.5, 0.0}, {0.0, 0.5}})
	if r := tableRelevance(cover, 2); r != 0 {
		t.Errorf("R = %f, want 0 (below clip)", r)
	}
	cover = coverFeats([][]float64{{1.0, 0.0}, {0.0, 0.8}})
	if r := tableRelevance(cover, 2); math.Abs(r-0.9) > 1e-9 {
		t.Errorf("R = %f, want 0.9", r)
	}
	// q=1: threshold 1.0.
	if r := tableRelevance(coverFeats([][]float64{{0.9}}), 1); r != 0 {
		t.Errorf("single-col R = %f, want 0", r)
	}
	if r := tableRelevance(coverFeats([][]float64{{1.0}}), 1); math.Abs(r-1.0) > 1e-9 {
		t.Errorf("single-col R = %f, want 1", r)
	}
}

// coverFeats lifts a bare cover grid into the Features grid
// tableRelevance reads.
func coverFeats(cover [][]float64) [][]Features {
	out := make([][]Features, len(cover))
	for c := range cover {
		out[c] = make([]Features, len(cover[c]))
		for ell, v := range cover[c] {
			out[c][ell].Cover = v
		}
	}
	return out
}

func TestNodePotentialShape(t *testing.T) {
	p := DefaultParams()
	f := Features{SegSim: 0.8, Cover: 0.9}
	q, nt := 2, 3
	real := nodePotential(f, 0.5, q, nt, 0, &p)
	want := p.W1*0.8 + p.W2*0.9 + p.W5
	if math.Abs(real-want) > 1e-9 {
		t.Errorf("real-label potential = %f, want %f", real, want)
	}
	nr := nodePotential(Features{}, 0.5, q, nt, NR(q), &p)
	wantNR := p.W4 * (2.0 / 3.0) * 0.5
	if math.Abs(nr-wantNR) > 1e-9 {
		t.Errorf("nr potential = %f, want %f", nr, wantNR)
	}
	if na := nodePotential(Features{}, 0.5, q, nt, NA(q), &p); na != 0 {
		t.Errorf("na potential = %f, want 0", na)
	}
}

func buildTestModel(t *testing.T, q []string, tables []*wtable.Table) *Model {
	t.Helper()
	b := &Builder{Params: DefaultParams(), Stats: constStats{}}
	return b.Build(q, tables)
}

// buildIn is a full build through the caller's arena s, as the engine's
// query pipeline runs one: BuildTables, then an Extend that adds no
// tables. The model aliases s.
func buildIn(b *Builder, q []string, tables []*wtable.Table, s *BuildScratch) *Model {
	m := b.BuildTables(q, tables, s)
	m.Extend(b, nil, s)
	return m
}

func TestModelStage1Confidence(t *testing.T) {
	good := table("good", [][]string{{"Country", "Currency"}},
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}}, "currencies of the world")
	junk := table("junk", [][]string{{"ID", "Area"}},
		[][]string{{"7", "2236"}, {"9", "880"}}, "forest reserves")
	m := buildTestModel(t, []string{"country", "currency"}, []*wtable.Table{good, junk})

	// Distributions are proper.
	for ti := range m.Dist {
		for c := range m.Dist[ti] {
			var sum float64
			for _, p := range m.Dist[ti][c] {
				if p < -1e-12 || p > 1+1e-12 {
					t.Fatalf("probability out of range: %f", p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("distribution does not sum to 1: %f", sum)
			}
		}
	}
	// The good table's columns should be confidently mapped.
	if m.Conf[0][0] < 0.5 || m.Conf[0][1] < 0.5 {
		t.Errorf("good table confidences too low: %v", m.Conf[0])
	}
	// The junk table should not be confident about real labels.
	if m.Conf[1][0] > 0.6 || m.Conf[1][1] > 0.6 {
		t.Errorf("junk table spuriously confident: %v", m.Conf[1])
	}
}

func TestModelEdgesConnectOverlappingColumns(t *testing.T) {
	a := table("a", [][]string{{"Country", "Currency"}},
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}, {"India", "Rupee"}}, "currency list")
	// b is headerless but shares content with a.
	b := table("b", nil,
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}, {"India", "Rupee"}}, "")
	m := buildTestModel(t, []string{"country", "currency"}, []*wtable.Table{a, b})
	if len(m.Edges) == 0 {
		t.Fatal("no edges built despite full content overlap")
	}
	// Edges must pair column 0 with 0 and 1 with 1 (max-matching).
	for _, e := range m.Edges {
		if e.C1 != e.C2 {
			t.Errorf("mismatched edge %v", e)
		}
		if e.Coef() <= 0 {
			t.Errorf("edge with non-positive coefficient: %v", e)
		}
	}
}

func TestModelEdgeGatingByConfidence(t *testing.T) {
	// Two headerless junk tables with shared content but no confident
	// endpoint must produce no edge.
	a := table("a", nil, [][]string{{"x1", "y1"}, {"x2", "y2"}}, "")
	b := table("b", nil, [][]string{{"x1", "y1"}, {"x2", "y2"}}, "")
	m := buildTestModel(t, []string{"country", "currency"}, []*wtable.Table{a, b})
	if len(m.Edges) != 0 {
		t.Errorf("edges built between two unconfident tables: %v", m.Edges)
	}
}

func TestScoreConstraints(t *testing.T) {
	a := table("a", [][]string{{"Country", "Currency"}},
		[][]string{{"France", "Euro"}}, "currencies")
	m := buildTestModel(t, []string{"country", "currency"}, []*wtable.Table{a})
	q := 2

	ok := Labeling{Q: q, Y: [][]int{{0, 1}}}
	if s := m.Score(ok); math.IsInf(s, -1) {
		t.Error("feasible labeling scored -Inf")
	}
	mutex := Labeling{Q: q, Y: [][]int{{0, 0}}}
	if s := m.Score(mutex); !math.IsInf(s, -1) {
		t.Error("mutex violation not rejected")
	}
	halfNR := Labeling{Q: q, Y: [][]int{{NR(q), 0}}}
	if s := m.Score(halfNR); !math.IsInf(s, -1) {
		t.Error("all-Irr violation not rejected")
	}
	noFirst := Labeling{Q: q, Y: [][]int{{1, NA(q)}}}
	if s := m.Score(noFirst); !math.IsInf(s, -1) {
		t.Error("must-match violation not rejected")
	}
	minMatch := Labeling{Q: q, Y: [][]int{{0, NA(q)}}}
	if s := m.Score(minMatch); !math.IsInf(s, -1) {
		t.Error("min-match violation not rejected (q=2 needs 2 mapped)")
	}
	allNR := Labeling{Q: q, Y: [][]int{{NR(q), NR(q)}}}
	if s := m.Score(allNR); math.IsInf(s, -1) {
		t.Error("all-nr labeling must be feasible")
	}
}

func TestTableMaxMarginalsRespectMutex(t *testing.T) {
	// Two columns both matching query column 0 strongly: forcing both is
	// impossible, so each column's max-marginal for label 0 reflects the
	// other taking na.
	a := table("a", [][]string{{"Currency", "Currency"}},
		[][]string{{"Euro", "Euro"}}, "")
	m := buildTestModel(t, []string{"currency"}, []*wtable.Table{a})
	mu := m.tableMaxMarginals(0, &BuildScratch{})
	q := 1
	// µ(c=0, ℓ=0) must equal θ(0,ℓ0) + θ(1,na): the other column cannot
	// also take ℓ0.
	want := m.Node[0][0][0] + m.Node[0][1][NA(q)]
	if math.Abs(mu[0][0]-want) > 1e-9 {
		t.Errorf("mu[0][0] = %f, want %f", mu[0][0], want)
	}
	// nr max-marginal equals the all-nr score.
	wantNR := m.Node[0][0][NR(q)] + m.Node[0][1][NR(q)]
	if math.Abs(mu[0][NR(q)]-wantNR) > 1e-9 {
		t.Errorf("mu[0][nr] = %f, want %f", mu[0][NR(q)], wantNR)
	}
}

func TestLabelingHelpers(t *testing.T) {
	l := NewLabeling(2, []int{2, 3})
	if l.Relevant(0) {
		t.Error("fresh labeling should be all-nr (irrelevant)")
	}
	l.Y[0][0] = 0
	l.Y[0][1] = 1
	if !l.Relevant(0) {
		t.Error("table with real labels should be relevant")
	}
	if l.Relevant(1) {
		t.Error("all-nr table should be irrelevant")
	}
	if c := l.ColumnOf(0, 1); c != 1 {
		t.Errorf("ColumnOf = %d, want 1", c)
	}
	if c := l.ColumnOf(1, 0); c != -1 {
		t.Errorf("ColumnOf missing = %d, want -1", c)
	}
	cp := l.Clone()
	cp.Y[0][0] = NA(2)
	if l.Y[0][0] == NA(2) {
		t.Error("Clone aliases underlying storage")
	}
}

func TestMinMatch(t *testing.T) {
	for q, want := range []int{1, 1, 2, 2} {
		if got := MinMatch(q); got != want {
			t.Errorf("MinMatch(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestLabelString(t *testing.T) {
	if LabelString(0, 3) != "Q1" || LabelString(2, 3) != "Q3" {
		t.Error("query labels misrendered")
	}
	if LabelString(NA(3), 3) != "na" || LabelString(NR(3), 3) != "nr" {
		t.Error("na/nr labels misrendered")
	}
}

// TestContentSimOverlap pins the edge pass's content similarity: the
// Jaccard of two columns' distinct normalized cells, so a repeated cell
// counts once and a column without content words overlaps nothing, which
// is below the neighbor cut.
func TestContentSimOverlap(t *testing.T) {
	a := table("a", nil, [][]string{{"France"}, {"Japan"}, {"India"}, {"india "}}, "")
	b := table("b", nil, [][]string{{"France"}, {"Japan"}, {"Brazil"}}, "")
	empty := table("e", nil, [][]string{{""}, {"the"}}, "")
	m := (&Builder{Params: DefaultParams(), Stats: constStats{}}).Build([]string{"country"}, []*wtable.Table{a, b, empty})
	sims := make(map[[2]int]float64)
	for _, e := range m.rawEdges {
		sims[[2]int{int(e.t1), int(e.t2)}] = e.sim
	}
	if s := sims[[2]int{0, 1}]; s != 0.5 { // 2 shared / 4 union
		t.Errorf("content sim = %f, want 0.5", s)
	}
	if s, ok := sims[[2]int{0, 2}]; ok {
		t.Errorf("content sim with an empty column = %f, want no raw edge", s)
	}
}

func TestExplain(t *testing.T) {
	good := table("good", [][]string{{"Country", "Currency"}},
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}}, "currencies of the world")
	m := buildTestModel(t, []string{"country", "currency"}, []*wtable.Table{good})
	l := Labeling{Q: 2, Y: [][]int{{0, 1}}}
	exp := m.Explain(0, l)
	if !exp.Relevant {
		t.Error("explanation should mark table relevant")
	}
	if len(exp.Columns) != 2 {
		t.Fatalf("columns = %d", len(exp.Columns))
	}
	if exp.Columns[0].Label != "Q1" || exp.Columns[1].Label != "Q2" {
		t.Errorf("labels = %s, %s", exp.Columns[0].Label, exp.Columns[1].Label)
	}
	if exp.Columns[0].SegSim <= 0 {
		t.Error("SegSim missing from explanation")
	}
	s := exp.String()
	for _, want := range []string{"good", "relevant", "Country", "Q1"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation text missing %q:\n%s", want, s)
		}
	}
	all := m.ExplainAll(l)
	if len(all) != 1 {
		t.Errorf("ExplainAll returned %d entries", len(all))
	}
}
