package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP request; it equals the daemon's default
// per-query deadline, so a request the daemon gives up on fails here too.
const requestTimeout = 10 * time.Second

// stream is one sequence of requests sent over its own connections.
//
// A closed-loop stream (Dues nil) sends a connection's next request as
// soon as the previous one completes, until the window ends, and times
// each request from when it was sent. An open-loop stream sends request i
// at Dues[i] after the window start whatever became of earlier requests,
// and times it from Dues[i]: when every connection is stuck behind a slow
// response, the requests that fall due meanwhile are charged the wait.
type stream struct {
	Path  string
	Conns int
	Dues  []time.Duration
	// Body returns the body of request i.
	Body func(i int) []byte
	// Check validates a 200 response body.
	Check func(body []byte) error
}

// sample is the outcome of one request. Times are offsets from the
// window start.
type sample struct {
	Seq   int           // position in the stream
	Start time.Duration // when latency counting starts: due time (open loop) or send time
	Sent  time.Duration
	End   time.Duration
	Err   error // nil for a 200 whose body passed Check
}

func (s sample) latency() time.Duration { return s.End - s.Start }

// streamResult is everything a stream's run produced.
type streamResult struct {
	Samples    []sample // in completion order per connection, unordered across them
	Unsent     int      // open-loop requests abandoned because the generator fell hopelessly behind
	BacklogMax int      // most requests due but not yet sent at any send (open loop)
}

// giveUp is how far past the window an open-loop stream keeps working off
// its backlog before it abandons what is left as failed.
const giveUp = 5 * time.Second

// run sends the stream to base and returns when every connection is idle.
func (st *stream) run(base string, start time.Time, window time.Duration) streamResult {
	var (
		cursor  atomic.Int64
		mu      sync.Mutex
		res     streamResult
		wg      sync.WaitGroup
		backlog atomic.Int64
	)
	worker := func() {
		defer wg.Done()
		hc := &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   requestTimeout,
		}
		defer hc.CloseIdleConnections()
		var mine []sample
		for {
			i := int(cursor.Add(1) - 1)
			now := time.Since(start)
			sm := sample{Seq: i, Start: now}
			if st.Dues == nil {
				if now >= window {
					break
				}
			} else {
				if i >= len(st.Dues) {
					break
				}
				if now > window+giveUp {
					mu.Lock()
					res.Unsent++
					mu.Unlock()
					continue
				}
				sm.Start = st.Dues[i]
				if wait := sm.Start - now; wait > 0 {
					time.Sleep(wait)
				}
			}
			sm.Sent = time.Since(start)
			if st.Dues != nil {
				due := sort.Search(len(st.Dues), func(k int) bool { return st.Dues[k] > sm.Sent })
				for b := int64(due - i - 1); ; {
					cur := backlog.Load()
					if b <= cur || backlog.CompareAndSwap(cur, b) {
						break
					}
				}
			}
			body, err := post(hc, base+st.Path, st.Body(i))
			sm.End = time.Since(start)
			if err == nil {
				err = st.Check(body)
			}
			sm.Err = err
			mine = append(mine, sm)
		}
		mu.Lock()
		res.Samples = append(res.Samples, mine...)
		mu.Unlock()
	}
	wg.Add(st.Conns)
	for c := 0; c < st.Conns; c++ {
		go worker()
	}
	wg.Wait()
	res.BacklogMax = int(backlog.Load())
	return res
}

// post sends one JSON request and returns the body of a 200 response;
// any other status is an error.
func post(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, nil
}

// answer is the part of a POST /v1/answer response the benchmark reads.
type answer struct {
	Rows []struct {
		Cells []string `json:"cells"`
	} `json:"rows"`
	Tables     int  `json:"tables"`
	Relevant   int  `json:"relevant"`
	UsedProbe2 bool `json:"used_probe2"`
}

// decodeAnswer decodes an answer body and requires the rows member.
func decodeAnswer(body []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("answer body: %w", err)
	}
	if a.Rows == nil {
		return nil, errors.New("answer body has no rows")
	}
	return &a, nil
}

// parseAnswer returns the cells of an answer's rows.
func parseAnswer(body []byte) ([][]string, error) {
	a, err := decodeAnswer(body)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(a.Rows))
	for i, r := range a.Rows {
		rows[i] = r.Cells
	}
	return rows, nil
}

func checkAnswer(body []byte) error {
	_, err := decodeAnswer(body)
	return err
}

// parseIngest decodes a POST /v1/ingest response: tables acknowledged.
func parseIngest(body []byte) (int, error) {
	var r struct {
		Ingested *int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("ingest body: %w", err)
	}
	if r.Ingested == nil || *r.Ingested < 1 {
		return 0, errors.New("ingest acknowledged no tables")
	}
	return *r.Ingested, nil
}

// split separates a stream's samples into the latencies of the successes
// and the count of failures, unsent requests included.
func (r streamResult) split() (ok []time.Duration, failed int) {
	for _, s := range r.Samples {
		if s.Err != nil {
			failed++
			continue
		}
		ok = append(ok, s.latency())
	}
	return ok, failed + r.Unsent
}

// firstErr returns one failure for the report, or nil.
func (r streamResult) firstErr() error {
	for _, s := range r.Samples {
		if s.Err != nil {
			return s.Err
		}
	}
	if r.Unsent > 0 {
		return fmt.Errorf("%d requests abandoned unsent", r.Unsent)
	}
	return nil
}
