package serve

import (
	"encoding/csv"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"wwt"
	"wwt/internal/extract"
	"wwt/internal/wtable"
)

// ingestRequest is the POST /v1/ingest body. At least one of HTML or CSV
// must yield a table. HTML goes through the paper's extractor (data-table
// filter, header/title classification, context snippets); CSV tables are
// taken as-is with the first record as the header row. Any other field,
// or anything after the object, is rejected (decodeRequest).
type ingestRequest struct {
	// HTML is a page source; every extracted data table is ingested. URL
	// mints the tables' IDs ("url#k") and must be set with HTML.
	HTML string `json:"html,omitempty"`
	URL  string `json:"url,omitempty"`
	// CSV tables are ingested verbatim.
	CSV []csvTableDTO `json:"csv,omitempty"`
}

// csvTableDTO is one CSV table: RFC 4180 data whose first record is the
// header row, under a caller-chosen corpus-unique ID.
type csvTableDTO struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Data  string `json:"data"`
}

// ingestDTO is the POST /v1/ingest response: what was ingested and the
// now-serving generation.
type ingestDTO struct {
	Ingested   int    `json:"ingested"`
	Generation uint64 `json:"generation"`
	Segments   int    `json:"segments"`
	Docs       int    `json:"docs"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	if err := decodeRequest(r.Body, &req); err != nil {
		s.ingestErrs.Add(1)
		writeBodyError(w, err)
		return
	}
	tables, err := ingestTables(req)
	if err != nil {
		s.ingestErrs.Add(1)
		writeJSON(w, http.StatusBadRequest, errorDTO{Error: err.Error()})
		return
	}
	info, err := s.backend.IngestTables(tables)
	if err != nil {
		s.ingestErrs.Add(1)
		// Only an ID the corpus already holds conflicts with the index;
		// an ID repeated inside this request is the request's own fault.
		status := http.StatusBadRequest
		if errors.Is(err, wwt.ErrTableExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, errorDTO{Error: err.Error()})
		return
	}
	s.ingestReqs.Add(1)
	s.ingestTables.Add(int64(len(tables)))
	writeJSON(w, http.StatusOK, ingestDTO{
		Ingested:   len(tables),
		Generation: info.Generation,
		Segments:   info.Segments,
		Docs:       info.Docs,
	})
}

// ingestTables materializes the request's tables: HTML through the
// extractor, CSV verbatim. An ingest that yields no tables is an error —
// segments are never empty.
func ingestTables(req ingestRequest) ([]*wtable.Table, error) {
	var tables []*wtable.Table
	if req.HTML != "" {
		if req.URL == "" {
			return nil, fmt.Errorf("html ingest requires url (it mints table IDs)")
		}
		tables = append(tables, extract.Page(req.URL, req.HTML, extract.NewOptions())...)
	}
	for i, c := range req.CSV {
		t, err := csvTable(c)
		if err != nil {
			return nil, fmt.Errorf("csv[%d]: %w", i, err)
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("ingest yielded no tables (html without data tables, empty csv list?)")
	}
	return tables, nil
}

// csvTable converts one CSV DTO: first record → header row (marked as
// header cells for the labeler), remaining records → body rows.
func csvTable(c csvTableDTO) (*wtable.Table, error) {
	if c.ID == "" {
		return nil, fmt.Errorf("table without id")
	}
	rd := csv.NewReader(strings.NewReader(c.Data))
	rd.FieldsPerRecord = -1 // ragged rows are padded by the accessors
	recs, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("need a header record plus at least one body record")
	}
	t := &wtable.Table{ID: c.ID, PageTitle: c.Title}
	if c.Title != "" {
		t.TitleRows = []wtable.Row{rowOf([]string{c.Title}, false)}
	}
	t.HeaderRows = []wtable.Row{rowOf(recs[0], true)}
	for _, rec := range recs[1:] {
		t.BodyRows = append(t.BodyRows, rowOf(rec, false))
	}
	return t, nil
}

func rowOf(cells []string, header bool) wtable.Row {
	r := wtable.Row{Cells: make([]wtable.Cell, len(cells))}
	for i, c := range cells {
		r.Cells[i] = wtable.Cell{Text: strings.TrimSpace(c), IsTH: header}
	}
	return r
}

// renderLiveMetrics writes the live-index gauges appended to /metrics:
// serving generation, segment and doc counts, failed background merges,
// and cumulative ingest activity.
func (s *Server) renderLiveMetrics() string {
	info := s.backend.Info()
	var b strings.Builder
	fmt.Fprintf(&b, "wwt_index_generation %d\n", info.Generation)
	fmt.Fprintf(&b, "wwt_index_segments %d\n", info.Segments)
	fmt.Fprintf(&b, "wwt_merge_errors_total %d\n", info.MergeErrors)
	fmt.Fprintf(&b, "wwt_index_docs %d\n", info.Docs)
	fmt.Fprintf(&b, "wwt_ingest_requests_total %d\n", s.ingestReqs.Load())
	fmt.Fprintf(&b, "wwt_ingest_tables_total %d\n", s.ingestTables.Load())
	fmt.Fprintf(&b, "wwt_ingest_errors_total %d\n", s.ingestErrs.Load())
	return b.String()
}
