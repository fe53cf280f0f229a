package wwt_test

import (
	"slices"
	"strings"
	"testing"

	"wwt"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

func smallCorpus(t *testing.T) []*wtable.Table {
	t.Helper()
	pages := map[string]string{
		"http://a.example/currencies": `<html><head><title>Currencies of the world</title></head><body>
<h1>World currencies by country</h1><p>This article lists currencies of the world.</p>
<table><tr><th>Country</th><th>Currency</th></tr>
<tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr><tr><td>Brazil</td><td>Real</td></tr></table>
</body></html>`,
		"http://b.example/bare": `<html><head><title>Data page</title></head><body>
<table><tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr><tr><td>Brazil</td><td>Real</td></tr></table>
</body></html>`,
		"http://c.example/reserves": `<html><head><title>Forest reserves</title></head><body>
<p>Forest reserves under the forestry act.</p>
<table><tr><th>ID</th><th>Name</th><th>Area</th></tr>
<tr><td>7</td><td>Shakespeare Hills</td><td>2236</td></tr>
<tr><td>9</td><td>Plains Creek</td><td>880</td></tr></table>
</body></html>`,
	}
	var tables []*wtable.Table
	for url, html := range pages {
		tables = append(tables, extract.Page(url, html, extract.NewOptions())...)
	}
	if len(tables) != 3 {
		t.Fatalf("expected 3 tables, got %d", len(tables))
	}
	return tables
}

// TestProbe2SampleMatchesNormalize: probe 2 takes a sampled cell's tokens
// from its view's interned key, and the token list it probes with must be
// the one normalizing every sampled cell gives. It runs the 59 Table-1
// queries (and the small corpus's own query) over the small corpus and
// over the seed-2012 generated corpus at scale 1.
func TestProbe2SampleMatchesNormalize(t *testing.T) {
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 1})
	queries := [][]string{{"country", "currency"}}
	for _, q := range workload.FromCorpus(corpus) {
		queries = append(queries, q.Columns)
	}
	for _, tc := range []struct {
		name   string
		tables []*wtable.Table
	}{
		{"small", smallCorpus(t)},
		{"corpusgen", corpus.ExtractAll(extract.NewOptions())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := wwt.NewEngine(tc.tables, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			fired := 0
			for _, cols := range queries {
				got, want, ok, err := wwt.Probe2Sample(eng, wwt.Query{Columns: cols})
				if err != nil || !ok {
					continue
				}
				fired++
				if !slices.Equal(got, want) {
					t.Fatalf("%v: probe-2 tokens\n%q\nwant\n%q", cols, got, want)
				}
			}
			if fired == 0 {
				t.Fatal("probe 2 fired on no query")
			}
			t.Logf("probe 2 fired on %d of %d queries", fired, len(queries))
		})
	}
}

func TestEngineAnswerEndToEnd(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer.Rows) < 4 {
		t.Fatalf("answer rows = %d, want >= 4", len(res.Answer.Rows))
	}
	// France-Euro must be present with both columns populated.
	found := false
	for _, row := range res.Answer.Rows {
		if row.Cells[0] == "France" && row.Cells[1] == "Euro" {
			found = true
		}
	}
	if !found {
		t.Errorf("France/Euro row missing: %v", res.Answer.Rows)
	}
	// The reserves table must not contribute.
	for _, src := range res.Answer.Sources {
		if strings.Contains(src, "reserves") {
			t.Errorf("irrelevant table consolidated: %s", src)
		}
	}
	if res.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestEngineHeaderlessRecovery(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	// The bare-page headerless table shares full content with the headed
	// one; collective inference must mark it relevant.
	for ti, tb := range res.Tables {
		if strings.Contains(tb.ID, "bare") && !res.Labeling.Relevant(ti) {
			t.Errorf("headerless table not recovered")
		}
	}
	// Support for merged rows should therefore be 2.
	for _, row := range res.Answer.Rows {
		if row.Cells[0] == "Japan" && row.Support != 2 {
			t.Errorf("Japan support = %d, want 2", row.Support)
		}
	}
}

func TestEngineEmptyQuery(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer(wwt.Query{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := eng.Answer(wwt.Query{Columns: []string{"the of a"}}); err == nil {
		t.Error("stopword-only query accepted")
	}
}

func TestEngineNoMatches(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(wwt.Query{Columns: []string{"zzzunknown", "qqqabsent"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 0 || len(res.Answer.Rows) != 0 {
		t.Errorf("expected empty result, got %d tables %d rows", len(res.Tables), len(res.Answer.Rows))
	}
}

func TestEngineSecondProbeToggle(t *testing.T) {
	opts := wwt.DefaultOptions()
	opts.SecondProbe = false
	eng, err := wwt.NewEngine(smallCorpus(t), &opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedProbe2 {
		t.Error("probe2 used despite being disabled")
	}
	if res.Timings.Probe2 != 0 {
		t.Error("probe2 timing recorded despite being disabled")
	}
}

// TestEngineProbe2TimedWhenNotFired: with no stage-1 table relevant
// enough to seed the re-probe, the second probe never fires, but the
// stage still built and solved the stage-1 mapping — that time is charged
// to Timings.Probe2 while UsedProbe2 stays false. Probe 1 finds the
// currencies table through "country", but no table covers "capital", so
// every R(Q,t) is 0 (Eq. 2 clips a cover sum below 1.5).
func TestEngineProbe2TimedWhenNotFired(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(wwt.Query{Columns: []string{"country", "capital"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("probe 1 found no table")
	}
	if res.UsedProbe2 {
		t.Error("probe2 fired without a confident seed table")
	}
	if res.Timings.Probe2 <= 0 {
		t.Error("stage-1 mapping of probe2 not timed")
	}
}

// TestNewEngineRejectsIDlessTables: a nil table or a table without an ID
// is an error from NewEngine, not a panic inside the index build.
func TestNewEngineRejectsIDlessTables(t *testing.T) {
	for name, bad := range map[string]*wtable.Table{
		"nil table": nil,
		"empty ID":  {BodyRows: []wtable.Row{{Cells: []wtable.Cell{{Text: "x"}}}}},
	} {
		eng, err := wwt.NewEngine(append(smallCorpus(t), bad), nil)
		if err == nil {
			eng.Close()
			t.Fatalf("%s: NewEngine accepted it", name)
		}
		if !strings.Contains(err.Error(), "table without ID") {
			t.Errorf("%s: err = %v, want table without ID", name, err)
		}
	}
}

func TestEnginePersistenceRoundTrip(t *testing.T) {
	tables := smallCorpus(t)
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The directory layout wwt-index writes: flat files plus the store.
	dir := t.TempDir()
	if err := index.WriteDir(dir, tables, 1); err != nil {
		t.Fatal(err)
	}
	eng2, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	a, err := eng.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng2.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answer.Rows) != len(b.Answer.Rows) {
		t.Errorf("answers differ after persistence round trip: %d vs %d rows",
			len(a.Answer.Rows), len(b.Answer.Rows))
	}
}

func TestEngineDeterministic(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := wwt.Query{Columns: []string{"country", "currency"}}
	a, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answer.Rows) != len(b.Answer.Rows) {
		t.Fatal("row counts differ between runs")
	}
	for i := range a.Answer.Rows {
		for c := range a.Answer.Rows[i].Cells {
			if a.Answer.Rows[i].Cells[c] != b.Answer.Rows[i].Cells[c] {
				t.Fatalf("row %d differs between identical runs", i)
			}
		}
	}
}

func TestEngineDuplicateTableIDs(t *testing.T) {
	tables := smallCorpus(t)
	tables = append(tables, tables[0])
	if _, err := wwt.NewEngine(tables, nil); err == nil {
		t.Error("duplicate table IDs accepted")
	}
}
