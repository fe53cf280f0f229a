package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"wwt"
	"wwt/internal/index"
	"wwt/internal/wtable"
)

// liveEngine freezes the test corpus to a flat directory and opens it
// live, so the ingest endpoint runs against the real segment machinery.
func liveEngine(t *testing.T) *wwt.Engine {
	t.Helper()
	eng := testEngine(t)
	dir := t.TempDir()
	if err := index.WriteSharded(dir, eng.Searcher(), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Store().Save(filepath.Join(dir, index.StoreFileName)); err != nil {
		t.Fatal(err)
	}
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { le.Close() })
	return le
}

const metalsPage = `<html><head><title>Metals</title></head><body>
<table><tr><th>Metal</th><th>Symbol</th></tr>
<tr><td>Gold</td><td>Au</td></tr><tr><td>Silver</td><td>Ag</td></tr>
<tr><td>Iron</td><td>Fe</td></tr></table></body></html>`

// TestIngestRefusedByInMemoryEngine: an engine built in memory has no
// index directory to write segments to. A well-formed ingest passes the
// request validator, reaches the engine, and comes back refused with the
// engine's own error text.
func TestIngestRefusedByInMemoryEngine(t *testing.T) {
	eng := testEngine(t)
	ts := httptest.NewServer(New(eng, Config{}))
	defer ts.Close()
	body := `{"csv": [{"id": "rates-1", "data": "Country,Rate\nNarnia,42\n"}]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorDTO
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("in-memory engine accepted an ingest")
	}
	_, want := eng.IngestTables([]*wtable.Table{{ID: "probe"}})
	if want == nil || e.Error != want.Error() {
		t.Fatalf("ingest error = %q, want the engine's %v", e.Error, want)
	}
}

// TestIngestEndToEnd: POST an HTML page, then query the new table through
// /v1/answer on the same daemon — the whole point of live ingest — and
// check the wwt_index_* gauges moved.
func TestIngestEndToEnd(t *testing.T) {
	le := liveEngine(t)
	ts := httptest.NewServer(New(le, Config{}))
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"html": metalsPage, "url": "http://m.example/metals"})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var ing ingestDTO
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if ing.Ingested != 1 || ing.Generation != 1 || ing.Segments != 2 {
		t.Fatalf("ingest response = %+v", ing)
	}

	// The ingested table answers queries without a restart.
	resp2, data := postJSON(t, ts, `{"columns": ["metal", "symbol"]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp2.StatusCode, data)
	}
	var member memberDTO
	if err := json.Unmarshal(data, &member); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range member.Rows {
		if len(row.Cells) > 0 && row.Cells[0] == "Gold" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested table not answering: %+v", member.Rows)
	}

	// Re-ingesting the same page collides on table IDs: 409.
	resp3, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate ingest status %d, want 409", resp3.StatusCode)
	}

	// Metrics expose the live-index gauges and ingest counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met := readAll(t, mresp)
	for _, want := range []string{
		"wwt_index_generation 1",
		"wwt_index_segments 2",
		"wwt_merge_errors_total 0",
		"wwt_ingest_requests_total 1",
		"wwt_ingest_errors_total 1",
	} {
		if !strings.Contains(met, want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}
}

// TestIngestCSV: a CSV table ingests with the first record as header.
func TestIngestCSV(t *testing.T) {
	le := liveEngine(t)
	ts := httptest.NewServer(New(le, Config{}))
	defer ts.Close()

	body := `{"csv": [{"id": "rates-1", "title": "Exchange rates",
		"data": "Country,Rate\nNarnia,42\nOz,7\n"}]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing ingestDTO
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Ingested != 1 {
		t.Fatalf("csv ingest: status %d, %+v", resp.StatusCode, ing)
	}
	if got := le.Info().Docs; got != 3 {
		t.Fatalf("docs = %d, want 3", got)
	}
}

// TestIngestBadRequests: malformed bodies and empty batches are rejected
// without touching the index. The body decodes strictly: an unknown
// field or trailing data is a 400 whose error names it.
func TestIngestBadRequests(t *testing.T) {
	le := liveEngine(t)
	ts := httptest.NewServer(New(le, Config{}))
	defer ts.Close()

	for _, c := range []struct{ body, names string }{
		{`not json`, ""},
		{`{}`, ""}, // neither html nor csv
		{`{"html": "<table><tr><td>a</td></tr></table>"}`, ""},    // html without url
		{`{"csv": [{"data": "A,B\n1,2\n"}]}`, ""},                 // csv without id
		{`{"csv": [{"id": "x", "data": "A,B\n"}]}`, ""},           // header only
		{`{"html": "<p>tableless</p>", "url": "http://x/y"}`, ""}, // nothing extracted
		{`{"htm": "` + strings.ReplaceAll(metalsPage, "\n", "") + `", "url": "http://m.example/metals"}`, `"htm"`},
		{`{"csv": [{"id": "t1", "data": "A,B\n1,2\n", "titel": "x"}]}`, `"titel"`},
		{`{"csv": [{"id": "t2", "data": "A,B\n1,2\n"}]} {"csv": []}`, "after the request object"},
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorDTO
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", c.body, resp.StatusCode)
		}
		if err != nil || !strings.Contains(e.Error, c.names) {
			t.Fatalf("body %q: error %q (%v), want it to name %s", c.body, e.Error, err, c.names)
		}
	}
	if info := le.Info(); info.Generation != 0 || info.Segments != 1 {
		t.Fatalf("bad requests moved the index: %+v", info)
	}
}

// TestIngestOversizedBody: a body past the 8 MiB ingest limit is a 413,
// not a 400, and touches nothing.
func TestIngestOversizedBody(t *testing.T) {
	le := liveEngine(t)
	ts := httptest.NewServer(New(le, Config{}))
	defer ts.Close()

	body := `{"csv": [{"id": "big", "data": "A\n` + strings.Repeat("a", 8<<20) + `\n"}]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}
	if info := le.Info(); info.Generation != 0 {
		t.Fatalf("oversized ingest moved the index: %+v", info)
	}
}

// TestIngestDuplicateIDs: an ID the corpus already holds is a conflict
// with the index (409, wwt.ErrTableExists), while an ID repeated inside
// one request is the request's own fault (400). Neither touches the index.
func TestIngestDuplicateIDs(t *testing.T) {
	le := liveEngine(t)
	ts := httptest.NewServer(New(le, Config{}))
	defer ts.Close()
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAll(t, resp)
	}

	if code, body := post(`{"csv": [{"id": "rates-1", "data": "Country,Rate\nOz,7\n"}]}`); code != http.StatusOK {
		t.Fatalf("first ingest: status %d: %s", code, body)
	}
	code, body := post(`{"csv": [{"id": "rates-1", "data": "Country,Rate\nOz,8\n"}]}`)
	if code != http.StatusConflict || !strings.Contains(body, `rates-1`) {
		t.Fatalf("re-ingested ID: status %d: %s, want 409 naming it", code, body)
	}
	code, body = post(`{"csv": [{"id": "twin", "data": "A,B\n1,2\n"}, {"id": "twin", "data": "C,D\n3,4\n"}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, `twin`) {
		t.Fatalf("ID repeated in one request: status %d: %s, want 400 naming it", code, body)
	}
	if info := le.Info(); info.Generation != 1 || info.Docs != 3 {
		t.Fatalf("refused ingests moved the index: %+v", info)
	}
}
