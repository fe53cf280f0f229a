package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wwt/internal/corpusgen"
)

func TestSchedulesRepeatPerSeed(t *testing.T) {
	a := poissonSchedule(80, 5*time.Second, subSeed(2012, "arrivals"))
	b := poissonSchedule(80, 5*time.Second, subSeed(2012, "arrivals"))
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two Poisson schedules")
	}
	if c := poissonSchedule(80, 5*time.Second, subSeed(2013, "arrivals")); slices.Equal(a, c) {
		t.Fatal("two seeds gave the same Poisson schedule")
	}
	// About rate*dur arrivals, in order, all inside the window.
	if n := len(a); n < 320 || n > 480 {
		t.Errorf("%d arrivals at 80/s over 5s", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 5*time.Second {
		t.Error("arrivals out of order or past the window")
	}

	qs, _ := buildQueries(corpusgen.Domains(rand.New(rand.NewSource(defaultSeed))))
	for _, mix := range []string{mixZipf, mixUniform} {
		x := mixSequence(mix, 5000, qs, subSeed(2012, "mix"))
		y := mixSequence(mix, 5000, qs, subSeed(2012, "mix"))
		if !slices.Equal(x, y) {
			t.Fatalf("%s: the same seed gave two sequences", mix)
		}
		if z := mixSequence(mix, 5000, qs, subSeed(2013, "mix")); slices.Equal(x, z) {
			t.Fatalf("%s: two seeds gave the same sequence", mix)
		}
	}
	// The zipf mix is skewed: its most frequent query takes far more than
	// a uniform share. Which query that is does not depend on the seed.
	top := func(seed int64) (int32, int) {
		count := make(map[int32]int)
		for _, q := range mixSequence(mixZipf, 5000, qs, seed) {
			count[q]++
		}
		best := int32(-1)
		for q, n := range count {
			if n > count[best] {
				best = q
			}
		}
		return best, count[best]
	}
	q1, n1 := top(1)
	q2, _ := top(2)
	if n1 < 5000/10 {
		t.Errorf("hottest zipf query drawn %d times of 5000", n1)
	}
	if q1 != q2 || int(q1) != zipfRanks(qs)[0] {
		t.Errorf("hottest query is %d at seed 1 and %d at seed 2, want rank 0 = %d", q1, q2, zipfRanks(qs)[0])
	}
	if got := fixedSchedule(10, time.Second); len(got) != 9 || got[0] != 100*time.Millisecond {
		t.Errorf("fixedSchedule(10/s, 1s) = %v", got)
	}
}

// TestOpenLoopChargesStall is the coordinated-omission case: one stalled
// response on the only connection must show up in the latency of every
// request that fell due behind it, because they are timed from their due
// time and not from when the connection got round to them.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"rows":[]}`))
	}))
	defer srv.Close()

	st := &stream{
		Path: "/", Conns: 1,
		Dues:  []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond, 300 * time.Millisecond},
		Body:  func(int) []byte { return []byte("{}") },
		Check: checkAnswer,
	}
	res := st.run(srv.URL, time.Now(), time.Second)
	if len(res.Samples) != len(st.Dues) {
		t.Fatalf("%d samples for %d requests", len(res.Samples), len(st.Dues))
	}
	for _, s := range res.Samples {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		// Request i fell due at Dues[i] and could not complete before the
		// stall ended; request 4 fell due after it.
		want := stall - st.Dues[s.Seq]
		switch {
		case s.Seq < 4 && s.latency() < want:
			t.Errorf("request %d: latency %v, want at least %v", s.Seq, s.latency(), want)
		case s.Seq == 4 && s.latency() > stall/2:
			t.Errorf("request %d fell due after the stall but has latency %v", s.Seq, s.latency())
		}
		if s.Seq > 0 && s.Seq < 4 && s.Sent-s.Start < want-5*time.Millisecond {
			t.Errorf("request %d: sent %v late, want about %v", s.Seq, s.Sent-s.Start, want)
		}
	}
	if res.BacklogMax < 2 {
		t.Errorf("backlog max %d, want the requests queued behind the stall", res.BacklogMax)
	}
	lat, failed := res.split()
	if len(lat) != 5 || failed != 0 {
		t.Errorf("split: %d ok, %d failed", len(lat), failed)
	}
}

func TestClosedLoopStopsAtWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"rows":[]}`))
	}))
	defer srv.Close()
	st := &stream{Path: "/", Conns: 2, Body: func(int) []byte { return []byte("{}") }, Check: checkAnswer}
	start := time.Now()
	res := st.run(srv.URL, start, 50*time.Millisecond)
	if elapsed := time.Since(start); len(res.Samples) < 2 || elapsed > time.Second {
		t.Fatalf("%d samples in %v", len(res.Samples), elapsed)
	}
	for _, s := range res.Samples {
		if s.Sent >= 50*time.Millisecond+10*time.Millisecond {
			t.Errorf("request %d sent at %v, after the window", s.Seq, s.Sent)
		}
	}
}

func TestAnswerAndIngestBodies(t *testing.T) {
	if _, err := parseAnswer([]byte(`{"tables":3}`)); err == nil {
		t.Error("an answer without rows passed")
	}
	rows, err := parseAnswer([]byte(`{"rows":[{"cells":["a","b"],"support":2}]}`))
	if err != nil || !reflect.DeepEqual(rows, [][]string{{"a", "b"}}) {
		t.Errorf("parseAnswer = %v, %v", rows, err)
	}
	if n, err := parseIngest([]byte(`{"ingested":2,"docs":9}`)); n != 2 || err != nil {
		t.Errorf("parseIngest = %d, %v", n, err)
	}
	if _, err := parseIngest([]byte(`{"error":"no"}`)); err == nil {
		t.Error("an ingest that acknowledged nothing passed")
	}
}

func TestPercentileHelpers(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if s := spread(vs); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestRowPrecisionAt10(t *testing.T) {
	// Entities: country, currency, population. The query asks
	// country | population, so answer column 1 is truth column 2.
	truth := [][]string{
		{"France", "Euro", "68 million"},
		{"Japan", "Yen", "125 million"},
		{"Kenya", "Kenyan shilling", "54 million"},
	}
	cols := []int{0, 2}
	answer := [][]string{
		{"France", "68 million"},   // right
		{"japan ", "125  Million"}, // right after case and space folding
		{"Kenya", ""},              // right: the empty cell is not held against it
		{"Kenya", "125 million"},   // wrong: cells of two entities
		{"Atlantis", "1"},          // wrong: no such entity
		{"", ""},                   // wrong: nothing to match
	}
	if c, n := rowPrecisionAt10(answer, truth, cols); c != 3 || n != 6 {
		t.Errorf("precision = %d/%d, want 3/6", c, n)
	}
	long := make([][]string, 25)
	for i := range long {
		long[i] = []string{"France", "68 million"}
	}
	if c, n := rowPrecisionAt10(long, truth, cols); c != 10 || n != 10 {
		t.Errorf("precision of 25 rows = %d/%d, want the first ten only", c, n)
	}
	if c, n := rowPrecisionAt10(answer[:1], truth, []int{0, -1}); c != 0 || n != 1 {
		t.Errorf("a column without ground truth matched: %d/%d", c, n)
	}
	if !sameRowSet([][]string{{"b", "2"}, {"A", "1"}}, [][]string{{"a", "1"}, {"b", "2"}}) ||
		sameRowSet([][]string{{"a", "1"}}, [][]string{{"a", "1"}, {"b", "2"}}) {
		t.Error("sameRowSet")
	}
}

func TestQuerySet(t *testing.T) {
	domains := corpusgen.Domains(rand.New(rand.NewSource(defaultSeed)))
	qs, table1 := buildQueries(domains)
	if table1 != len(domains) {
		t.Fatalf("%d Table-1 queries for %d domains", table1, len(domains))
	}
	if len(qs) < 300 || len(qs) > 600 {
		t.Errorf("|Q| = %d, want about 400", len(qs))
	}
	seen := make(map[string]bool)
	for i, q := range qs {
		if seen[q.String()] {
			t.Errorf("query %q twice", q)
		}
		seen[q.String()] = true
		if !bytes.Contains(q.Body, []byte(`"columns"`)) {
			t.Errorf("query %q has body %s", q, q.Body)
		}
		if i < table1 {
			for c, col := range truthColumns(q) {
				if col < 0 {
					t.Errorf("query %q column %d has no ground-truth column", q, c)
				}
			}
		}
	}
	// Q depends on the domains' fixed vocabulary, not on the seed.
	other, _ := buildQueries(corpusgen.Domains(rand.New(rand.NewSource(heldOutSeed))))
	if len(other) != len(qs) {
		t.Errorf("|Q| is %d at seed %d and %d at seed %d", len(qs), defaultSeed, len(other), heldOutSeed)
	}
}

func TestHeldOutPagesAndSentinel(t *testing.T) {
	pages, err := heldOutPages(defaultSeed+1, 30)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := heldOutPages(defaultSeed+1, 30)
	if !reflect.DeepEqual(pages, again) {
		t.Fatal("the same seed gave two sets of held-out pages")
	}
	for _, p := range pages {
		if !strings.HasPrefix(p.URL, "http://heldout.example/") || !strings.Contains(p.HTML, "<table") {
			t.Errorf("page %s", p.URL)
		}
	}
	s := newSentinel(5)
	if len(s.Rows) == 0 || !bytes.Contains(s.Body, []byte(s.Rows[0][0])) || bytes.Equal(s.Body, newSentinel(6).Body) {
		t.Error("sentinel does not carry its rows or ignores the seed")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "serve/answer", Start: 0, End: 100, Parent: -1},
		{Name: "engine.batch", Start: 10, End: 90, Parent: 0},
		{Name: "pipeline.probe1", Start: 10, End: 30, Parent: 1},
		{Name: "pipeline.colmap", Start: 30, End: 80, Parent: 1},
		{Name: "serve/ingest", Start: 100, End: 150, Parent: -1},
		{Name: "serve/answer", Start: 150, End: 400, Parent: -1},
	}
	a := aggregate(spans)
	if a.self["serve/answer"] != 20+250 || a.self["engine.batch"] != 10 || a.total["pipeline.colmap"] != 50 || a.negative != 0 {
		t.Errorf("aggregate: self %v total %v negative %d", a.self, a.total, a.negative)
	}
	// The first answer after the ingest took 250ns; the median answer 175ns.
	if got := postSwapPenaltyTraced(spans); math.Abs(got-75e-6) > 1e-12 {
		t.Errorf("post-swap penalty = %v ms", got)
	}
	spans[2].End = 200
	if aggregate(spans).negative == 0 {
		t.Error("a child that outlasts its parent went unnoticed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	write := func(name, content string) {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"steady_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"noisy_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}`)
	line := func(steady, noisy, qps string) string {
		return `{"workload":"w","trace":0,"metrics":{"steady_ms":{"value":` + steady + `},"noisy_ms":{"value":` + noisy + `},"qps":{"value":` + qps + `}}}` + "\n"
	}
	write("a.jsonl", line("100", "50", "200")+line("101", "100", "201")+line("99", "150", "199")+line("100", "75", "200"))
	write("b.jsonl", line("120", "50", "195")+line("121", "100", "196")+line("119", "150", "194")+line("120", "75", "195"))
	var out bytes.Buffer
	worse, err := compareReports(&out, "a.jsonl", "b.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !worse || !strings.Contains(got, "worse (n=4,4 ms)") || !strings.Contains(got, "unresolved") || !strings.Contains(got, "ok (n=4,4 1/s)") {
		t.Errorf("worse=%v\n%s", worse, got)
	}
	out.Reset()
	if worse, _ := compareReports(&out, "a.jsonl", "a.jsonl"); worse {
		t.Errorf("a report is worse than itself:\n%s", out.String())
	}
}
