package main

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wwt/internal/corpusgen"
)

// workloadSpec is one traffic mix. See README.md for why each exists.
type workloadSpec struct {
	Name string
	Mix  string // which queries are asked how often
	Open bool   // Poisson arrivals at openRate, not a closed loop
	Live bool   // one connection ingests held-out pages beside the queries
}

var workloads = []workloadSpec{
	{Name: "hot-closed", Mix: mixZipf},
	{Name: "wide-closed", Mix: mixUniform},
	{Name: "hot-open", Mix: mixZipf, Open: true},
	{Name: "ingest-mixed", Mix: mixZipf, Live: true},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	corpusScale = 32 // about 15.5k pages and 20k tables
	clients     = 2  // connections; the box has two cores
	// openRate is the offered load of hot-open in requests per second, about
	// a third of what hot-closed sustains on the reference box (README.md has
	// the measurement). It is a constant, never calibrated at run time.
	openRate = 60.0
	// ingestRate is the fixed schedule of ingest-mixed in pages per second.
	ingestRate = 10.0
	// seqLen bounds the pre-drawn query mix; a closed loop that outruns it
	// wraps around.
	seqLen = 1 << 17
)

// inputs is everything generated from the seed: the daemon and the
// in-process engine only ever see these.
type inputs struct {
	Spec     workloadSpec
	Seed     int64
	Window   time.Duration
	Queries  []query
	Table1   int             // Queries[:Table1] are the Table-1 queries
	Seq      []int32         // the query mix, as indexes into Queries
	Arrivals []time.Duration // hot-open: Poisson due times
	Pages    []heldOutPage   // ingest-mixed: the pages to ingest, in order
	IngestAt []time.Duration // ingest-mixed: their due times
	Sentinel sentinel
}

func makeInputs(spec workloadSpec, seed int64, window time.Duration, traced bool) (*inputs, error) {
	in := &inputs{Spec: spec, Seed: seed, Window: window}
	// Generate draws the domains first from a generator seeded the same
	// way, so these are the entity rows the corpus under test is made of.
	domains := corpusgen.Domains(rand.New(rand.NewSource(seed)))
	in.Queries, in.Table1 = buildQueries(domains)
	in.Seq = mixSequence(spec.Mix, seqLen, in.Queries, subSeed(seed, "mix"))
	if spec.Open {
		in.Arrivals = poissonSchedule(openRate, window, subSeed(seed, "arrivals"))
	}
	pages := 0
	if spec.Live {
		in.IngestAt = fixedSchedule(ingestRate, window)
		in.Sentinel = newSentinel(subSeed(seed, "sentinel"))
		pages = len(in.IngestAt)
	}
	if traced {
		pages = max(pages, extractPages, traceRequests/traceIngestEvery)
	}
	if pages > 0 {
		var err error
		if in.Pages, err = heldOutPages(seed+1, pages); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// queryStream is the workload's query traffic.
func (in *inputs) queryStream() *stream {
	st := &stream{
		Path:  "/v1/answer",
		Conns: clients,
		Dues:  in.Arrivals,
		Body:  func(i int) []byte { return in.Queries[in.Seq[i%len(in.Seq)]].Body },
		Check: checkAnswer,
	}
	if in.Spec.Live {
		st.Conns = 1
	}
	return st
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one run of one workload, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers that are printed but are not part of the
	// BENCHMARK.json contract: sample counts, generator health, and
	// diagnostics of the untraced daemon.
	Info map[string]metric `json:"info,omitempty"`
	// Failures lists every failed correctness check.
	Failures []string `json:"failures,omitempty"`
}

func newResult(in *inputs, trace int) *runResult {
	return &runResult{
		Workload: in.Spec.Name, Seed: in.Seed, Trace: trace, Correct: true,
		Metrics: make(map[string]metric), Info: make(map[string]metric),
	}
}

func (r *runResult) set(name string, v float64, unit string)  { r.Metrics[name] = metric{v, unit} }
func (r *runResult) info(name string, v float64, unit string) { r.Info[name] = metric{v, unit} }

// fail records a failed correctness check; the run then reports
// correct=false and the command exits non-zero.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runE2E measures one workload against the real daemon over loopback
// HTTP, untraced.
func runE2E(in *inputs) (*runResult, error) {
	res := newResult(in, 0)
	dir, err := os.MkdirTemp(outDir, in.Spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	onExit(func() { os.RemoveAll(dir) })

	idx, corpusT, indexT, err := buildIndex(dir, in.Seed, corpusScale)
	if err != nil {
		return nil, err
	}
	// Set-up is what turns a crawl on disk into a warm daemon. Writing the
	// crawl is input generation and stays out of it: on the sandbox's ext4
	// creating its files takes a second or ten depending on where the
	// directory happens to land.
	setupStart := time.Now()
	d, readyT, err := startDaemon(idx, filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	onExit(d.stop)

	hc := &http.Client{Timeout: requestTimeout}
	ask := func(q query) ([][]string, error) {
		body, err := post(hc, d.base+"/v1/answer", q.Body)
		if err != nil {
			return nil, err
		}
		return parseAnswer(body)
	}
	// table1Pass asks the Table-1 queries once, serially.
	table1Pass := func(when string) [][][]string {
		out := make([][][]string, in.Table1)
		for i, q := range in.Queries[:in.Table1] {
			res.Attempted++
			rows, err := ask(q)
			if err != nil {
				res.Failed++
				res.fail("%s pass, query %q: %v", when, q, err)
			}
			out[i] = rows
		}
		return out
	}
	sameAnswers := func(a, b [][][]string, what string) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				res.fail("query %q: rows differ %s", in.Queries[i], what)
			}
		}
	}

	// Cold pass, then the warm-up: one serial pass over all of Q, so every
	// run starts its window from the same cache coverage whatever the box's
	// speed.
	cold := table1Pass("cold")
	warmStart := time.Now()
	warm := make([][][]string, in.Table1)
	for i, q := range in.Queries {
		res.Attempted++
		rows, err := ask(q)
		if err != nil {
			res.Failed++
			res.fail("warm-up, query %q: %v", q, err)
		}
		if i < in.Table1 {
			warm[i] = rows
		}
	}
	warmT := time.Since(warmStart)
	setupT := indexT + time.Since(setupStart)
	sameAnswers(cold, warm, "between the cold and the warm pass")

	correct, total := 0, 0
	for i, q := range in.Queries[:in.Table1] {
		c, t := rowPrecisionAt10(warm[i], q.Domain.Rows, truthColumns(q))
		correct, total = correct+c, total+t
	}
	if total == 0 {
		res.fail("the Table-1 queries returned no rows at all")
		total = 1
	}

	before, err := scrapeMetrics(d.base)
	if err != nil {
		return nil, err
	}
	// ackIngest validates an ingest response and counts the tables it
	// acknowledges.
	var acked atomic.Int64
	ackIngest := func(body []byte) error {
		n, err := parseIngest(body)
		acked.Add(int64(n))
		return err
	}
	if in.Spec.Live {
		res.Attempted++
		body, err := post(hc, d.base+"/v1/ingest", in.Sentinel.Body)
		if err == nil {
			err = ackIngest(body)
		}
		if err != nil {
			res.Failed++
			res.fail("sentinel ingest: %v", err)
		}
	}
	procBefore, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}

	// The measured window.
	var (
		wg      sync.WaitGroup
		queries streamResult
		ingests streamResult
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries = in.queryStream().run(d.base, start, in.Window)
	}()
	if in.Spec.Live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stream{
				Path: "/v1/ingest", Conns: 1, Dues: in.IngestAt,
				Body:  func(i int) []byte { return in.Pages[i].Body },
				Check: ackIngest,
			}
			ingests = st.run(d.base, start, in.Window)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	procAfter, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(d.base)
	if err != nil {
		return nil, err
	}
	indexBytes, err := dirBytes(idx)
	if err != nil {
		return nil, err
	}

	// After the window: answers must not depend on cache state, and what
	// was acknowledged must be served.
	if in.Spec.Live {
		res.Attempted++
		body, err := post(hc, d.base+"/v1/answer", in.Sentinel.Query)
		var rows [][]string
		if err == nil {
			rows, err = parseAnswer(body)
		}
		if err != nil {
			res.Failed++
			res.fail("sentinel query: %v", err)
		} else if !sameRowSet(rows, in.Sentinel.Rows) {
			res.fail("sentinel query returned %v, want the ingested rows %v", rows, in.Sentinel.Rows)
		}
		if grew := int64(after["wwt_index_docs"] - before["wwt_index_docs"]); grew != acked.Load() {
			res.fail("wwt_index_docs grew by %d, but %d tables were acknowledged", grew, acked.Load())
		}
	} else {
		sameAnswers(cold, table1Pass("post-window"), "between the cold pass and after the window")
	}

	okLat, qFailed := queries.split()
	ingLat, iFailed := ingests.split()
	res.Attempted += len(queries.Samples) + queries.Unsent + len(ingests.Samples) + ingests.Unsent
	res.Failed += qFailed + iFailed
	if err := errors.Join(queries.firstErr(), ingests.firstErr()); err != nil {
		res.fail("window: %d of %d operations failed, e.g. %v", qFailed+iFailed,
			len(queries.Samples)+len(ingests.Samples)+queries.Unsent+ingests.Unsent, err)
	}
	if len(okLat) == 0 {
		return nil, errors.New("no query succeeded in the window")
	}

	lat := sortedMS(okLat)
	cpu := procAfter.CPU - procBefore.CPU
	res.set("setup_s", setupT.Seconds(), "s")
	res.set("qps", float64(len(okLat))/elapsed.Seconds(), "1/s")
	res.set("latency_p50_ms", percentile(lat, 50), "ms")
	res.set("cpu_ms_per_query", ms(cpu)/float64(len(okLat)), "ms")
	res.set("rss_peak_mb", procAfter.PeakRSSMB, "MB")
	res.set("index_bytes_per_table", float64(indexBytes)/after["wwt_index_docs"], "B")
	res.set("row_precision_at_10", float64(correct)/float64(total), "share")

	// Tail latencies are printed and reported but carry no bound: between
	// runs of one commit they spread by more than a quarter on hot-open.
	res.info("latency_p90_ms", percentile(lat, 90), "ms")
	res.info("latency_p99_ms", percentile(lat, 99), "ms")
	res.info("fail_share", float64(res.Failed)/float64(res.Attempted), "share")
	res.info("latency_samples", float64(len(lat)), "count")
	res.info("latency_tail_percentile", tailPercentile(len(lat)), "%")
	res.info("latency_tail_ms", percentile(lat, tailPercentile(len(lat))), "ms")
	res.info("window_s", elapsed.Seconds(), "s")
	res.info("setup.corpus_s", corpusT.Seconds(), "s")
	res.info("setup.index_build_s", indexT.Seconds(), "s")
	res.info("setup.daemon_ready_s", readyT.Seconds(), "s")
	res.info("setup.warm_s", warmT.Seconds(), "s")
	res.info("loadgen.sent", float64(len(queries.Samples)), "count")
	res.info("loadgen.ok", float64(len(okLat)), "count")
	res.info("loadgen.failed", float64(qFailed), "count")
	if in.Spec.Open {
		late := make([]time.Duration, len(queries.Samples))
		for i, s := range queries.Samples {
			late[i] = s.Sent - s.Start
		}
		res.info("loadgen.late_p99_ms", percentile(sortedMS(late), 99), "ms")
		res.info("loadgen.backlog_max", float64(queries.BacklogMax), "count")
		achieved := float64(len(okLat)) / in.Window.Seconds() / openRate
		res.info("loadgen.achieved_share", achieved, "share")
		if achieved < 0.95 {
			fmt.Printf("SATURATED: %s achieved %.1f%% of the offered %.0f req/s; its latencies describe a growing queue, not the service\n",
				in.Spec.Name, 100*achieved, openRate)
		}
	}
	if in.Spec.Live {
		if len(ingLat) == 0 {
			return nil, errors.New("no ingest succeeded in the window")
		}
		il := sortedMS(ingLat)
		res.info("ingest_latency_p50_ms", percentile(il, 50), "ms")
		res.info("ingest_latency_p90_ms", percentile(il, 90), "ms")
		res.info("ingest_samples", float64(len(il)), "count")
		res.info("live.post_swap_penalty_ms", postSwapPenalty(queries.Samples, ingests.Samples), "ms")
		res.info("live.generations", after["wwt_index_generation"]-before["wwt_index_generation"], "count")
		res.info("live.segments_end", after["wwt_index_segments"], "count")
	}
	// Diagnostics of the untraced daemon over the window.
	res.info("proc.rss_start_mb", procBefore.RSSMB, "MB")
	res.info("proc.rss_end_mb", procAfter.RSSMB, "MB")
	res.info("proc.minor_faults", float64(procAfter.MinorFaults-procBefore.MinorFaults), "count")
	res.info("proc.major_faults", float64(procAfter.MajFaults-procBefore.MajFaults), "count")
	res.info("index.disk_bytes", float64(indexBytes), "B")
	res.info("serve.shed", after["wwt_queries_shed_total"]-before["wwt_queries_shed_total"], "count")
	for _, c := range []struct{ metric, cache string }{{"core.pair_hit_rate", "pair_sims"}, {"core.view_hit_rate", "views"}} {
		hits := delta(before, after, `wwt_cache_hits_total{cache="`+c.cache+`"}`)
		misses := delta(before, after, `wwt_cache_misses_total{cache="`+c.cache+`"}`)
		if hits+misses > 0 {
			res.info(c.metric, hits/(hits+misses), "share")
		}
	}
	return res, nil
}

func delta(before, after map[string]float64, key string) float64 { return after[key] - before[key] }

// truthColumns maps each column of a Table-1 query to the column of its
// domain's entity matrix that holds the same attribute, -1 when none does.
func truthColumns(q query) []int {
	cols := make([]int, len(q.Keys))
	for i, key := range q.Keys {
		cols[i] = slices.IndexFunc(q.Domain.Attrs, func(a corpusgen.Attr) bool { return a.Key == key })
	}
	return cols
}

// sameRowSet reports whether got holds exactly the rows of want, in any
// order, cells compared after normalisation.
func sameRowSet(got, want [][]string) bool {
	key := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			for _, c := range r {
				out[i] += normCell(c) + "\x00"
			}
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(got), key(want))
}

// postSwapPenalty is the mean latency of the first query sent after each
// ingest completed (and so after each generation swap), minus the median
// query latency: what a cold-cache generation costs the next caller.
func postSwapPenalty(queries, ingests []sample) float64 {
	var sent []sample
	var all []time.Duration
	for _, q := range queries {
		if q.Err == nil {
			sent = append(sent, q)
			all = append(all, q.latency())
		}
	}
	slices.SortFunc(sent, func(a, b sample) int { return cmp.Compare(a.Sent, b.Sent) })
	var first []float64
	for _, ing := range ingests {
		if ing.Err != nil {
			continue
		}
		i, _ := slices.BinarySearchFunc(sent, ing.End, func(s sample, t time.Duration) int { return cmp.Compare(s.Sent, t) })
		if i < len(sent) {
			first = append(first, ms(sent[i].latency()))
		}
	}
	if len(first) == 0 {
		return 0
	}
	return mean(first) - percentile(sortedMS(all), 50)
}
