package serve

// Serving-layer tests: request/response shapes over a real engine,
// deterministic load shedding and deadline behavior over a stub backend,
// metrics exposition, and graceful drain of in-flight requests.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wwt"
	"wwt/internal/consolidate"
	"wwt/internal/extract"
	"wwt/internal/wtable"
)

func testTables(t *testing.T) []*wtable.Table {
	t.Helper()
	pages := map[string]string{
		"http://a.example/currencies": `<html><head><title>Currencies of the world</title></head><body>
<h1>World currencies by country</h1><p>This article lists currencies of the world.</p>
<table><tr><th>Country</th><th>Currency</th></tr>
<tr><td>France</td><td>Euro</td></tr><tr><td>Japan</td><td>Yen</td></tr>
<tr><td>India</td><td>Indian rupee</td></tr><tr><td>Brazil</td><td>Real</td></tr></table>
</body></html>`,
		"http://b.example/capitals": `<html><head><title>Capitals</title></head><body>
<p>Capital cities by country.</p>
<table><tr><th>Country</th><th>Capital</th></tr>
<tr><td>France</td><td>Paris</td></tr><tr><td>Japan</td><td>Tokyo</td></tr>
<tr><td>India</td><td>New Delhi</td></tr><tr><td>Brazil</td><td>Brasilia</td></tr></table>
</body></html>`,
	}
	var tables []*wtable.Table
	opts := extract.NewOptions()
	for url, html := range pages {
		tables = append(tables, extract.Page(url, html, opts)...)
	}
	if len(tables) == 0 {
		t.Fatal("no tables extracted")
	}
	return tables
}

func testEngine(t *testing.T) *wwt.Engine {
	t.Helper()
	eng, err := wwt.NewEngine(testTables(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func postJSON(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/answer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSingleAnswer round-trips one query through a real engine and checks
// the response shape.
func TestSingleAnswer(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{}))
	defer ts.Close()

	resp, body := postJSON(t, ts, `{"columns": ["country", "currency"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var m memberDTO
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if m.Error != "" || len(m.Rows) == 0 || m.Tables == 0 {
		t.Fatalf("unexpected member result: %+v", m)
	}
	for _, row := range m.Rows {
		if len(row.Cells) != 2 {
			t.Fatalf("row has %d cells, want 2: %+v", len(row.Cells), row)
		}
	}
}

// TestBatchAnswer: member errors stay in their own slots, the rest of the
// batch answers, and the batch summary counts both.
func TestBatchAnswer(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{}))
	defer ts.Close()

	resp, body := postJSON(t, ts,
		`{"queries": [{"columns": ["country", "currency"]}, {"columns": ["the of a"]}, {"columns": ["country", "capital"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var b batchDTO
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if len(b.Results) != 3 || b.Queries != 3 || b.Failed != 1 {
		t.Fatalf("batch summary: %+v", b)
	}
	if b.Results[1].Error == "" || len(b.Results[1].Rows) != 0 {
		t.Fatalf("bad member not isolated: %+v", b.Results[1])
	}
	for _, i := range []int{0, 2} {
		if b.Results[i].Error != "" || len(b.Results[i].Rows) == 0 {
			t.Fatalf("member %d: %+v", i, b.Results[i])
		}
	}
}

// observeHold folds one batch that held its worker slots for d into s's
// hold average, as every served batch does.
func observeHold(s *Server, d time.Duration) {
	s.met.recordBatch(wwt.BatchTimings{Wall: d}, time.Now())
}

// TestHoldEWMA: the hold average is 0 until the first batch, which seeds
// it directly; each later batch carries holdAlpha of the weight.
func TestHoldEWMA(t *testing.T) {
	s := New(testEngine(t), Config{})
	if got := s.met.holdAvg(); got != 0 {
		t.Fatalf("cold hold average = %v, want 0", got)
	}
	observeHold(s, 10*time.Second)
	if got := s.met.holdAvg(); got != 10*time.Second {
		t.Fatalf("first batch must seed directly: got %v", got)
	}
	observeHold(s, 20*time.Second)
	if got := s.met.holdAvg(); got != 12*time.Second {
		t.Fatalf("after 10s, 20s: got %v, want 12s", got)
	}
}

func TestDrainEstimate(t *testing.T) {
	hold := 2 * time.Second
	cases := []struct {
		occupied, need, capacity int
		want                     time.Duration
	}{
		{0, 1, 4, 2 * time.Second},   // empty server: one wave
		{4, 4, 4, 4 * time.Second},   // full server, full request: two waves
		{16, 4, 4, 10 * time.Second}, // deep queue: five waves
		{3, 0, 4, 2 * time.Second},   // need clamps up to 1
	}
	for _, c := range cases {
		if got := drainEstimate(c.occupied, c.need, c.capacity, hold); got != c.want {
			t.Errorf("drainEstimate(%d,%d,%d): got %v, want %v", c.occupied, c.need, c.capacity, got, c.want)
		}
	}
	if got := drainEstimate(4, 1, 4, 0); got != 0 {
		t.Errorf("cold hold: got %v, want 0", got)
	}
	if got := drainEstimate(4, 1, 0, hold); got != 0 {
		t.Errorf("zero capacity: got %v, want 0", got)
	}
}

// TestRetryAfterDerivation pins the drain-estimate clamp: cold hold
// average floors at 1s, long drains cap at MaxTimeout, a fractional
// drain rounds up, never down, and a sub-second MaxTimeout still
// advises 1s.
func TestRetryAfterDerivation(t *testing.T) {
	s := New(testEngine(t), Config{MaxTimeout: 10 * time.Second})
	if got := s.retryAfter(5, 1, 4); got != "1" {
		t.Errorf("cold estimator: Retry-After = %s, want 1", got)
	}
	observeHold(s, 2*time.Second)                 // one 2s wave observed
	if got := s.retryAfter(7, 1, 4); got != "4" { // ceil(8/4)=2 waves x 2s
		t.Errorf("warm estimator: Retry-After = %s, want 4", got)
	}
	if got := s.retryAfter(400, 1, 4); got != "10" { // clamped to MaxTimeout
		t.Errorf("long drain: Retry-After = %s, want 10", got)
	}
	s = New(testEngine(t), Config{MaxTimeout: 10 * time.Second})
	observeHold(s, 1000500*time.Microsecond) // one 1000.5ms wave
	if got := s.retryAfter(0, 1, 4); got != "2" {
		t.Errorf("fractional drain: Retry-After = %s, want 2", got)
	}
	s = New(testEngine(t), Config{MaxTimeout: 500 * time.Millisecond})
	observeHold(s, 2*time.Second)
	if got := s.retryAfter(400, 1, 4); got != "1" { // sub-second ceiling rounds up to the floor
		t.Errorf("sub-second MaxTimeout: Retry-After = %s, want 1", got)
	}
}

// TestRequestValidation: malformed bodies, empty requests, mixed forms,
// unknown fields, trailing data and oversized batches are rejected
// without reaching the engine.
func TestRequestValidation(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{MaxBatchSize: 2}))
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
		say  string // substring the error must contain, when set
	}{
		{`not json`, http.StatusBadRequest, ""},
		{`{}`, http.StatusBadRequest, ""},
		{`{"columns": ["a"], "queries": [{"columns": ["b"]}]}`, http.StatusBadRequest, ""},
		{`{"queries": [{"columns":["a"]},{"columns":["b"]},{"columns":["c"]}]}`, http.StatusRequestEntityTooLarge, ""},
		{`{"columns": ["the of a"]}`, http.StatusBadRequest, ""}, // engine: no content words
		{`{"columns": [` + strings.Repeat(`"country",`, 16) + `"country"]}`, http.StatusBadRequest, "limit of 16"},
		{`{"columns": ["` + strings.Repeat("word ", 33) + `"]}`, http.StatusBadRequest, "limit of 32"},
		{`{"queries": [{"columns":["a"]}], "schedule": "bogus"}`, http.StatusBadRequest, `"schedule"`},
		{`{"columns": ["country"], "schedule": "sjf"}`, http.StatusBadRequest, `"schedule"`},
		{`{"columns": ["country"], "planner": {}}`, http.StatusBadRequest, `"planner"`},
		{`{"columns": ["a"]} {}`, http.StatusBadRequest, "after the request object"},
	} {
		resp, body := postJSON(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d, want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
		var e errorDTO
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error response not well-formed JSON: %s", tc.body, body)
		}
		if !strings.Contains(e.Error, tc.say) {
			t.Errorf("body %q: error %q does not mention %s", tc.body, e.Error, tc.say)
		}
	}
}

// TestAnswerOversizedBody: a body past the 1 MiB answer limit is a 413,
// not a 400, and never reaches the engine.
func TestAnswerOversizedBody(t *testing.T) {
	stub := newStubBackend()
	ts := httptest.NewServer(New(stub, Config{}))
	defer ts.Close()

	resp, body := postJSON(t, ts, `{"columns": ["`+strings.Repeat("x", 1<<20)+`"]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized answer: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	var e errorDTO
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "too large") {
		t.Fatalf("oversized answer: error response %s", body)
	}
	if n := len(stub.started); n != 0 {
		t.Fatalf("oversized answer reached the engine %d times", n)
	}
}

// stubBackend is a controllable Backend: it signals when a batch starts
// and holds every member until release is closed or the member's context
// expires.
type stubBackend struct {
	started chan struct{} // receives one token per AnswerBatchPlan call
	release chan struct{} // close to let held batches finish
}

func newStubBackend() *stubBackend {
	return &stubBackend{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *stubBackend) AnswerBatchPlan(ctx context.Context, queries []wwt.Query, workers int, perQuery time.Duration, _ wwt.BatchPlan) *wwt.BatchResult {
	b.started <- struct{}{}
	br := &wwt.BatchResult{
		Results: make([]*wwt.Result, len(queries)),
		Errs:    make([]error, len(queries)),
	}
	br.Timings.Queries = len(queries)
	for i := range queries {
		qctx := ctx
		var cancel context.CancelFunc
		if perQuery > 0 {
			qctx, cancel = context.WithTimeout(ctx, perQuery)
		}
		select {
		case <-b.release:
			br.Results[i] = &wwt.Result{Answer: &consolidate.Answer{}}
		case <-qctx.Done():
			br.Errs[i] = qctx.Err()
			br.Timings.Failed++
		}
		if cancel != nil {
			cancel()
		}
	}
	return br
}

func (b *stubBackend) CacheStats() wwt.EngineCacheStats { return wwt.EngineCacheStats{} }

func (b *stubBackend) PlanStats() wwt.PlanStats { return wwt.PlanStats{} }

func (b *stubBackend) IngestTables([]*wtable.Table) (wwt.LiveInfo, error) {
	return wwt.LiveInfo{}, errors.New("stub: no ingest")
}

func (b *stubBackend) Info() wwt.LiveInfo { return wwt.LiveInfo{} }

// TestAdmissionShedding saturates a 1-slot, no-queue server and demands
// the second request is shed with 429 + Retry-After while the first
// completes untouched.
func TestAdmissionShedding(t *testing.T) {
	stub := newStubBackend()
	ts := httptest.NewServer(New(stub, Config{Workers: 1, MaxInFlight: 1, QueueDepth: -1}))
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/answer", "application/json",
			strings.NewReader(`{"columns": ["country"]}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-stub.started // the first request holds the only slot

	resp, body := postJSON(t, ts, `{"columns": ["currency"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(stub.release)
	if got := <-done; got != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", got)
	}

	// Capacity freed: the server admits again.
	resp, body = postJSON(t, ts, `{"columns": ["country"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d (%s)", resp.StatusCode, body)
	}
}

// TestDeadlineExceeded: a request whose per-query budget expires maps to
// 504 with the context error in the body (single form) and to a
// member-slot error (batch form).
func TestDeadlineExceeded(t *testing.T) {
	stub := newStubBackend() // never released: every member waits out its deadline
	ts := httptest.NewServer(New(stub, Config{DefaultTimeout: 30 * time.Millisecond, MaxTimeout: 50 * time.Millisecond}))
	defer ts.Close()

	resp, body := postJSON(t, ts, `{"columns": ["country"], "timeout_ms": 25}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	var e errorDTO
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error body %s, want deadline exceeded", body)
	}

	resp, body = postJSON(t, ts, `{"queries": [{"columns": ["country"]}], "timeout_ms": 25}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", resp.StatusCode, body)
	}
	var b batchDTO
	if err := json.Unmarshal(body, &b); err != nil || b.Failed != 1 ||
		!strings.Contains(b.Results[0].Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("batch deadline body %s", body)
	}

	// An absurd timeout_ms must clamp to MaxTimeout, not overflow
	// time.Duration into "no deadline at all".
	resp, body = postJSON(t, ts, `{"columns": ["country"], "timeout_ms": 99999999999999999}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("overflow timeout status = %d, want 504 (%s)", resp.StatusCode, body)
	}
}

// TestErrStatusMapping: budget exhaustion is 504, recovered engine panics
// are server faults (500), anything else is a client-side query error.
func TestErrStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{fmt.Errorf("wwt: batch member 0 %w: boom", wwt.ErrPanic), http.StatusInternalServerError},
		{errors.New("wwt: empty query"), http.StatusBadRequest},
	} {
		if got := errStatus(tc.err); got != tc.want {
			t.Errorf("errStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestHealthzAndMetrics drives traffic through a real engine and checks
// both observability endpoints: healthz JSON shape, and the metrics
// exposition carrying QPS, per-stage latency, occupancy and all four
// cache series.
func TestHealthzAndMetrics(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{}))
	defer ts.Close()

	postJSON(t, ts, `{"columns": ["country", "currency"]}`)
	postJSON(t, ts, `{"queries": [{"columns": ["country", "capital"]}, {"columns": ["the"]}]}`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthDTO
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Status != "ok" || h.Capacity <= 0 {
		t.Fatalf("healthz body %s: %v", body, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"wwt_http_requests_total 2",
		"wwt_queries_total 3",
		"wwt_queries_answered_total 2",
		"wwt_queries_failed_total 1",
		"wwt_qps_30s ",
		"wwt_inflight_capacity ",
		`wwt_stage_seconds_total{stage="probe1"}`,
		`wwt_stage_seconds_total{stage="consolidate"}`,
		`wwt_cache_hits_total{cache="views"}`,
		`wwt_cache_hit_rate{cache="views"}`,
		"wwt_view_cache_entries ",
		"wwt_interner_strings ",
		"wwt_plan_queue_drain_seconds ",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q:\n%s", want, met)
		}
	}
	for _, retired := range []string{`cache="pair_sims"`, `cache="doc_sets"`, `cache="norm_cells"`, "wwt_plan_cost_error", "wwt_plan_calibrated"} {
		if strings.Contains(met, retired) {
			t.Errorf("metrics still export the retired series %s:\n%s", retired, met)
		}
	}
}

// TestGracefulShutdownDrains: http.Server.Shutdown must wait for an
// in-flight batch to finish and deliver its response, while the listener
// stops accepting new work.
func TestGracefulShutdownDrains(t *testing.T) {
	stub := newStubBackend()
	srv := New(stub, Config{})
	hs := httptest.NewServer(srv)

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/answer", "application/json",
			strings.NewReader(`{"columns": ["country"]}`))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-stub.started

	var wg sync.WaitGroup
	wg.Add(1)
	shutdownErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- hs.Config.Shutdown(ctx)
	}()
	// Shutdown is draining; release the in-flight batch and demand both a
	// clean response and a clean shutdown.
	time.Sleep(50 * time.Millisecond)
	close(stub.release)
	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	hs.Close()
}

// TestAdmissionQueueing: with queue depth available, a saturating request
// waits instead of shedding, and is admitted when capacity frees.
func TestAdmissionQueueing(t *testing.T) {
	adm := newAdmission(2, 2)
	if err := adm.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- adm.acquire(context.Background(), 2) }()
	// The waiter occupies the whole queue: further demand sheds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, queued, _ := adm.snapshot(); queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := adm.acquire(context.Background(), 1); !errors.Is(err, errOverloaded) {
		t.Fatalf("full queue: err = %v, want errOverloaded", err)
	}
	adm.release(2)
	if err := <-admitted; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if inFlight, queued, _ := adm.snapshot(); inFlight != 2 || queued != 0 {
		t.Fatalf("after handoff: inFlight=%d queued=%d", inFlight, queued)
	}
	adm.release(2)

	// A queued waiter whose context dies leaves the queue cleanly.
	if err := adm.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() { gone <- adm.acquire(ctx, 1) }()
	for {
		if _, queued, _ := adm.snapshot(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter: err = %v, want context.Canceled", err)
	}
	if _, queued, _ := adm.snapshot(); queued != 0 {
		t.Fatalf("abandoned waiter left queued=%d", queued)
	}
	adm.release(2)
}

// TestAdmissionFIFONoStarvation: waiters are admitted strictly in arrival
// order — a narrow request queued behind a wide one must not slip past it
// when capacity frees in small pieces, so wide batches cannot be starved
// by a stream of single-query requests.
func TestAdmissionFIFONoStarvation(t *testing.T) {
	adm := newAdmission(2, 4)
	for i := 0; i < 2; i++ { // saturate: inFlight = 2
		if err := adm.acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	waitQueued := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if _, queued, _ := adm.snapshot(); queued == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queued never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wide := make(chan error, 1)
	go func() { wide <- adm.acquire(context.Background(), 2) }()
	waitQueued(2)
	narrow := make(chan error, 1)
	go func() { narrow <- adm.acquire(context.Background(), 1) }()
	waitQueued(3)

	// One slot frees: the narrow waiter would fit, but the wide head needs
	// two — nobody may be admitted.
	adm.release(1)
	select {
	case err := <-wide:
		t.Fatalf("wide admitted with insufficient capacity: %v", err)
	case err := <-narrow:
		t.Fatalf("narrow overtook the wide head: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if inFlight, queued, _ := adm.snapshot(); inFlight != 1 || queued != 3 {
		t.Fatalf("after partial release: inFlight=%d queued=%d", inFlight, queued)
	}

	// The second slot frees: the wide head is admitted and now saturates
	// the capacity, so the narrow waiter keeps waiting behind it.
	adm.release(1)
	if err := <-wide; err != nil {
		t.Fatalf("wide head: %v", err)
	}
	select {
	case err := <-narrow:
		t.Fatalf("narrow admitted beyond capacity: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	adm.release(2)
	if err := <-narrow; err != nil {
		t.Fatalf("narrow after wide released: %v", err)
	}
	adm.release(1)
	if inFlight, queued, _ := adm.snapshot(); inFlight != 0 || queued != 0 {
		t.Fatalf("final state: inFlight=%d queued=%d", inFlight, queued)
	}
}
