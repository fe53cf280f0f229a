package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"wwt/internal/corpusgen"
	"wwt/internal/workload"
)

// query is one member of the query set Q. Keys and Domain are set only
// on the Table-1 queries, the ones ground truth exists for.
type query struct {
	Columns []string
	Keys    []string          // semantic key per column (Table-1 queries only)
	Domain  *corpusgen.Domain // generating domain (Table-1 queries only)
	Body    []byte            // the POST /v1/answer request body
}

func (q query) String() string { return strings.Join(q.Columns, " | ") }

// subSeed derives the seed of one random stream (corpus, query mix,
// arrivals, ...) from the run seed, so the streams are independent and
// all fixed by -seed.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// buildQueries derives Q from the corpus domains: each domain's Table-1
// query; that query with one column's keywords swapped for each
// lower-cased header synonym of the column's attribute; every 2-column
// projection and the first-column-only projection of multi-column
// queries. Duplicates collapse onto their first occurrence. The Table-1
// queries come first, in Table-1 order; table1 is their count.
func buildQueries(domains []*corpusgen.Domain) (qs []query, table1 int) {
	seen := make(map[string]bool)
	add := func(q query) {
		key := q.String()
		if seen[key] {
			return
		}
		seen[key] = true
		q.Body = answerBody(q.Columns)
		qs = append(qs, q)
	}
	base := workload.FromCorpus(&corpusgen.Corpus{Domains: domains})
	for i, w := range base {
		add(query{Columns: w.Columns, Keys: w.Keys, Domain: domains[i]})
	}
	table1 = len(qs)
	for i, w := range base {
		for c, key := range w.Keys {
			for _, a := range domains[i].Attrs {
				if a.Key != key {
					continue
				}
				for _, h := range a.Headers {
					cols := append([]string(nil), w.Columns...)
					cols[c] = strings.ToLower(h)
					add(query{Columns: cols})
				}
			}
		}
		if w.Q() < 2 {
			continue
		}
		for a := 0; a < w.Q(); a++ {
			for b := a + 1; b < w.Q(); b++ {
				add(query{Columns: []string{w.Columns[a], w.Columns[b]}})
			}
		}
		add(query{Columns: []string{w.Columns[0]}})
	}
	return qs, table1
}

// answerBody is the POST /v1/answer body of a single query.
func answerBody(columns []string) []byte {
	body, err := json.Marshal(struct {
		Columns []string `json:"columns"`
	}{columns})
	if err != nil {
		panic(err) // a []string always marshals
	}
	return body
}

// Query mixes.
const (
	mixZipf    = "zipf"
	mixUniform = "uniform"
	zipfS      = 1.1
)

// zipfRanks orders Q from the hottest query of the zipf mix to the
// coldest: by a hash of the query text, so the order is arbitrary but the
// same at every seed. Throughput differs by a quarter between one hot set
// and another, more than any regression bound, so a seed that chose the
// hot set would decide the result; the seed decides the corpus, the order
// of the draws, the arrivals and the ingested pages instead.
func zipfRanks(qs []query) []int {
	ranks := make([]int, len(qs))
	hash := make([]uint64, len(qs))
	for i, q := range qs {
		h := fnv.New64a()
		h.Write([]byte(q.String()))
		ranks[i], hash[i] = i, h.Sum64()
	}
	slices.SortFunc(ranks, func(a, b int) int { return cmp.Compare(hash[a], hash[b]) })
	return ranks
}

// mixSequence draws n indexes into the query set.
func mixSequence(mix string, n int, qs []query, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int32, n)
	switch mix {
	case mixZipf:
		ranks := zipfRanks(qs)
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(qs)-1))
		for i := range seq {
			seq[i] = int32(ranks[z.Uint64()])
		}
	case mixUniform:
		for i := range seq {
			seq[i] = int32(rng.Intn(len(qs)))
		}
	default:
		panic("unknown mix " + mix)
	}
	return seq
}

// poissonSchedule returns the due offsets of Poisson arrivals at rate
// per second over dur.
func poissonSchedule(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// fixedSchedule returns due offsets every 1/rate seconds over dur,
// starting one interval in.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	step := time.Duration(float64(time.Second) / rate)
	var due []time.Duration
	for d := step; d < dur; d += step {
		due = append(due, d)
	}
	return due
}

// heldOutPage is one page the corpus under test has never seen.
type heldOutPage struct {
	URL  string
	HTML string
	Body []byte // the POST /v1/ingest request body
}

// heldOutPages generates n pages from a corpus of another seed, keeping
// only pages with a ground-truth table (junk pages would be rejected as
// yielding no tables) and rewriting URLs so table IDs cannot collide with
// the corpus under test, whose URLs are numbered the same way.
func heldOutPages(seed int64, n int) ([]heldOutPage, error) {
	// Scale 1 yields about 480 ledger pages.
	scale := float64(n/400 + 1)
	c := corpusgen.Generate(corpusgen.Config{Seed: seed, Scale: scale, JunkPages: 1})
	ledger := make(map[string]bool, len(c.Truth))
	for id := range c.Truth {
		if i := strings.LastIndexByte(id, '#'); i >= 0 {
			ledger[id[:i]] = true
		}
	}
	var out []heldOutPage
	for _, p := range c.Pages {
		if !ledger[p.URL] {
			continue
		}
		url := fmt.Sprintf("http://heldout.example/s%d/p%d", seed, len(out))
		body, err := json.Marshal(struct {
			URL  string `json:"url"`
			HTML string `json:"html"`
		}{url, p.HTML})
		if err != nil {
			return nil, err
		}
		out = append(out, heldOutPage{URL: url, HTML: p.HTML, Body: body})
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("held-out corpus has %d ledger pages, need %d", len(out), n)
}

// sentinel is a CSV table whose header tokens occur nowhere else in any
// corpus, ingested at window start on the live workload and looked up by
// its own query at window end.
type sentinel struct {
	Body  []byte // POST /v1/ingest
	Query []byte // POST /v1/answer
	Rows  [][]string
}

func newSentinel(seed int64) sentinel {
	rng := rand.New(rand.NewSource(seed))
	word := func(prefix string) string {
		b := []byte(prefix)
		for i := 0; i < 8; i++ {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		return string(b)
	}
	h1, h2 := word("zq"), word("xj")
	var s sentinel
	var csv strings.Builder
	fmt.Fprintf(&csv, "%s,%s\n", h1, h2)
	for i := 0; i < 6; i++ {
		row := []string{word("vk"), word("wq")}
		s.Rows = append(s.Rows, row)
		fmt.Fprintf(&csv, "%s,%s\n", row[0], row[1])
	}
	type csvTable struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Data  string `json:"data"`
	}
	var err error
	s.Body, err = json.Marshal(struct {
		CSV []csvTable `json:"csv"`
	}{[]csvTable{{ID: fmt.Sprintf("sentinel-%d", seed), Title: h1 + " " + h2, Data: csv.String()}}})
	if err != nil {
		panic(err)
	}
	s.Query = answerBody([]string{h1, h2})
	return s
}
