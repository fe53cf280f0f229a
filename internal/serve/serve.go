package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"wwt"
	"wwt/internal/wtable"
)

// Backend is the engine surface the server drives. *wwt.Engine implements
// it; tests substitute stubs. Implementations must be safe for concurrent
// calls; ingests may serialize internally but must never block in-flight
// queries.
type Backend interface {
	// AnswerBatchPlan answers queries under ctx with a per-member deadline;
	// see wwt.Engine.AnswerBatchCtx for the slot/error contract. The server
	// always passes the zero BatchPlan.
	AnswerBatchPlan(ctx context.Context, queries []wwt.Query, workers int, perQuery time.Duration, bp wwt.BatchPlan) *wwt.BatchResult
	// CacheStats snapshots the engine's cross-query cache counters.
	CacheStats() wwt.EngineCacheStats
	// PlanStats snapshots the probe counters.
	PlanStats() wwt.PlanStats
	// IngestTables freezes the batch into a new index segment and
	// atomically publishes the new generation, or reports why it cannot
	// (an engine without an index directory has nowhere to write).
	IngestTables(tables []*wtable.Table) (wwt.LiveInfo, error)
	// Info snapshots the serving generation.
	Info() wwt.LiveInfo
}

// Config tunes the server. The zero value serves with sane defaults.
type Config struct {
	// Workers is the engine worker pool size per batch (<= 0: GOMAXPROCS).
	// Each worker runs its member's whole query on its own goroutine, so
	// one slot is one executing goroutine. Clamped to MaxInFlight so the
	// admission cap bounds executing goroutines: one admitted batch can
	// never out-run the semaphore.
	Workers int
	// MaxInFlight bounds concurrently executing worker slots across all
	// requests (<= 0: GOMAXPROCS). A request occupies min(members,
	// Workers) slots.
	MaxInFlight int
	// QueueDepth bounds the worker slots' worth of requests allowed to
	// wait for capacity before the server sheds with 429. 0 means the
	// default (4x MaxInFlight); negative disables queuing entirely.
	QueueDepth int
	// DefaultTimeout is the per-query deadline when a request doesn't set
	// timeout_ms (<= 0: 10s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (<= 0: 60s).
	MaxTimeout time.Duration
	// MaxBatchSize bounds members per request (<= 0: 256); larger
	// requests are rejected with 413.
	MaxBatchSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.MaxInFlight {
		c.Workers = c.MaxInFlight
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 4 * c.MaxInFlight
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBatchSize <= 0 {
		c.MaxBatchSize = 256
	}
	return c
}

// Server is the HTTP serving layer: an http.Handler exposing
// POST /v1/answer, POST /v1/ingest, GET /healthz and GET /metrics over a
// Backend. See the package documentation for the endpoint, deadline and
// admission contracts. Immutable after New; safe for concurrent requests.
type Server struct {
	backend Backend
	cfg     Config
	adm     *admission
	met     *metrics
	mux     *http.ServeMux

	ingestReqs   atomic.Int64
	ingestTables atomic.Int64
	ingestErrs   atomic.Int64
}

// New returns a ready server over backend. cfg zero values take defaults.
func New(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		backend: backend,
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		met:     newMetrics(time.Now()),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// answerRequest is the POST /v1/answer body. Exactly one of Columns
// (single query) or Queries (batch) must be set. Any other field, or
// anything after the object, is rejected (decodeRequest).
type answerRequest struct {
	Columns   []string   `json:"columns,omitempty"`
	Queries   []queryDTO `json:"queries,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

type queryDTO struct {
	Columns []string `json:"columns"`
}

type rowDTO struct {
	Cells   []string `json:"cells"`
	Support int      `json:"support"`
}

// memberDTO is one query's outcome. Error is set exactly when the member
// failed (and Rows is then absent).
type memberDTO struct {
	Rows       []rowDTO `json:"rows"`
	Tables     int      `json:"tables"`
	Relevant   int      `json:"relevant"`
	UsedProbe2 bool     `json:"used_probe2"`
	TotalUS    int64    `json:"total_us"`
	Error      string   `json:"error,omitempty"`
}

// batchDTO is the batch response: Results is index-aligned with the
// request's queries.
type batchDTO struct {
	Results []memberDTO `json:"results"`
	Queries int         `json:"queries"`
	Failed  int         `json:"failed"`
	Workers int         `json:"workers"`
	WallUS  int64       `json:"wall_us"`
	QPS     float64     `json:"qps"`
}

type errorDTO struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := decodeRequest(r.Body, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	single := len(req.Queries) == 0
	var queries []wwt.Query
	if single {
		if len(req.Columns) == 0 {
			writeJSON(w, http.StatusBadRequest, errorDTO{Error: "set either columns (single query) or queries (batch)"})
			return
		}
		queries = []wwt.Query{{Columns: req.Columns}}
	} else {
		if len(req.Columns) != 0 {
			writeJSON(w, http.StatusBadRequest, errorDTO{Error: "columns and queries are mutually exclusive"})
			return
		}
		if len(req.Queries) > s.cfg.MaxBatchSize {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorDTO{Error: fmt.Sprintf("batch of %d exceeds the %d-member limit", len(req.Queries), s.cfg.MaxBatchSize)})
			return
		}
		queries = make([]wwt.Query, len(req.Queries))
		for i, q := range req.Queries {
			queries[i] = wwt.Query{Columns: q.Columns}
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp in integer milliseconds before converting: a huge
		// timeout_ms would overflow time.Duration into a negative value
		// and escape both the ceiling and the deadline entirely.
		ms := req.TimeoutMS
		if maxMS := s.cfg.MaxTimeout.Milliseconds(); ms > maxMS {
			ms = maxMS
		}
		timeout = time.Duration(ms) * time.Millisecond
	}

	// Admission: occupy one worker slot per member the batch can actually
	// run concurrently. Overload is answered immediately, not queued.
	weight := len(queries)
	if weight > s.cfg.Workers {
		weight = s.cfg.Workers
	}
	if err := s.adm.acquire(r.Context(), weight); err != nil {
		if errors.Is(err, errOverloaded) {
			s.met.recordShed(len(queries))
			inFlight, queued, capacity := s.adm.snapshot()
			w.Header().Set("Retry-After", s.retryAfter(inFlight+queued, weight, capacity))
			writeJSON(w, http.StatusTooManyRequests, errorDTO{Error: "server overloaded, retry later"})
			return
		}
		// The client gave up while queued; the status is moot but keep the
		// connection protocol-clean.
		writeJSON(w, http.StatusServiceUnavailable, errorDTO{Error: err.Error()})
		return
	}
	defer s.adm.release(weight)

	br := s.backend.AnswerBatchPlan(r.Context(), queries, s.cfg.Workers, timeout, wwt.BatchPlan{})
	s.met.recordBatch(br.Timings, time.Now())
	// Serialize, then hand every member's pooled arena straight back to
	// the engine: the serving tier never pins arenas across requests.
	defer br.Release()

	members := make([]memberDTO, len(queries))
	for i := range queries {
		if err := br.Errs[i]; err != nil {
			members[i] = memberDTO{Error: err.Error()}
			continue
		}
		members[i] = toMemberDTO(br.Results[i])
	}

	if single {
		if err := br.Errs[0]; err != nil {
			writeJSON(w, errStatus(err), errorDTO{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, members[0])
		return
	}
	writeJSON(w, http.StatusOK, batchDTO{
		Results: members,
		Queries: br.Timings.Queries,
		Failed:  br.Timings.Failed,
		Workers: br.Timings.Workers,
		WallUS:  br.Timings.Wall.Microseconds(),
		QPS:     br.Timings.QPS(),
	})
}

// decodeRequest decodes exactly one JSON object from r into v. A field v
// does not declare fails with the decoder's message naming it, and so
// does anything but whitespace after the object: a client sending a field
// the server does not support learns so instead of being ignored.
func decodeRequest(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err != nil {
			return err
		}
		return fmt.Errorf("unexpected %v after the request object", tok)
	}
	return nil
}

// writeBodyError answers a body decodeRequest refused: 413 when it ran
// past the endpoint's size limit, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorDTO{Error: "bad request body: " + err.Error()})
}

func toMemberDTO(res *wwt.Result) memberDTO {
	rows := make([]rowDTO, len(res.Answer.Rows))
	for i, row := range res.Answer.Rows {
		rows[i] = rowDTO{Cells: row.Cells, Support: row.Support}
	}
	relevant := 0
	for ti := range res.Tables {
		if res.Labeling.Relevant(ti) {
			relevant++
		}
	}
	return memberDTO{
		Rows:       rows,
		Tables:     len(res.Tables),
		Relevant:   relevant,
		UsedProbe2: res.UsedProbe2,
		TotalUS:    res.Timings.Total().Microseconds(),
	}
}

// errStatus maps a single query's error to its HTTP status: deadline and
// cancellation map to 504 (the query ran out of budget), a recovered
// engine panic is a server fault (500), anything else is a client-side
// query problem.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, wwt.ErrPanic):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// drainEstimate predicts how long until need worker slots free up, given
// the admission snapshot (occupied = in-flight + queued slots, capacity
// slots total) and the decayed average slot-hold time of recent requests.
// The queue drains in waves of at most capacity slots, each lasting about
// one hold time. It returns 0 when the inputs give no signal (a cold hold
// average or no capacity).
func drainEstimate(occupied, need, capacity int, hold time.Duration) time.Duration {
	if capacity <= 0 || hold <= 0 {
		return 0
	}
	if need < 1 {
		need = 1
	}
	waves := (occupied + need + capacity - 1) / capacity
	return time.Duration(waves) * hold
}

// retryAfter derives the 429 backoff from the estimated queue drain
// (drainEstimate over the occupancy at shed time). The estimate is
// clamped to [1s, MaxTimeout]; a cold server (no holds observed yet)
// falls back to the 1s floor.
func (s *Server) retryAfter(occupied, need, capacity int) string {
	est := drainEstimate(occupied, need, capacity, s.met.holdAvg())
	secs := int64(math.Ceil(est.Seconds())) // never advise retrying early
	if secs < 1 {
		secs = 1
	}
	// The ceiling rounds up too, so a sub-second MaxTimeout keeps the 1s
	// floor instead of truncating to 0.
	if maxS := int64(math.Ceil(s.cfg.MaxTimeout.Seconds())); secs > maxS {
		secs = maxS
	}
	return fmt.Sprintf("%d", secs)
}

type healthDTO struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	InFlight int     `json:"inflight_workers"`
	Queued   int     `json:"queued_workers"`
	Capacity int     `json:"capacity_workers"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight, queued, capacity := s.adm.snapshot()
	writeJSON(w, http.StatusOK, healthDTO{
		Status:   "ok",
		UptimeS:  time.Since(s.met.start).Seconds(),
		InFlight: inFlight,
		Queued:   queued,
		Capacity: capacity,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	inFlight, queued, capacity := s.adm.snapshot()
	drain := drainEstimate(inFlight+queued, 1, capacity, s.met.holdAvg())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.met.render(time.Now(), inFlight, queued, capacity,
		s.backend.CacheStats(), s.backend.PlanStats(), drain))
	fmt.Fprint(w, s.renderLiveMetrics())
}
