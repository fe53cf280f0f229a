package wwt

import (
	"cmp"
	"context"
	"hash/fnv"
	"math/rand"
	"slices"

	"wwt/internal/core"
	"wwt/internal/inference"
	"wwt/internal/text"
)

// ProbeK is the number of candidates fetched per index probe.
const ProbeK = probeK

// WithoutTables returns an engine over e's searcher whose generation
// holds no tables, so every Read1 that resolves a hit panics. The panic
// isolation tests use it; e must be an in-memory engine, whose searcher
// Close leaves usable.
func WithoutTables(e *Engine) *Engine {
	return newEngine(newGeneration(e.Searcher(), nil), &e.Opts)
}

// AnswerWithModel answers q through the full stage list on the
// caller-owned arena s and returns the Result with the column-mapping
// model the pipeline built. The model lives in s: it stays valid until s
// answers another query.
func AnswerWithModel(e *Engine, q Query, s *QueryScratch) (*Result, *core.Model, error) {
	g := e.acquire()
	defer e.release(g)
	st := &queryState{g: g, query: q}
	res, err := e.answerOn(context.Background(), st, s)
	return res, st.model, err
}

// Probe2Sample runs q's probe1, read1 and probe2 stages on a fresh arena
// and returns the probe-2 token list the pipeline built, the reference
// list probe2SampleRef builds by normalizing every sampled cell, and
// whether the re-probe fired.
func Probe2Sample(e *Engine, q Query) (got, want []string, fired bool, err error) {
	g := e.acquire()
	defer e.release(g)
	st := &queryState{g: g, query: q}
	s := &QueryScratch{}
	var tm Timings
	if err := e.runStages(context.Background(), answerPipeline[:3], st, s, &tm); err != nil {
		return nil, nil, false, err
	}
	if !st.probe2Fired {
		return nil, nil, false, nil
	}
	return s.sample, probe2SampleRef(e, st), true, nil
}

// probe2SampleRef is the reference probe-2 token list: the probe-1 tokens,
// then for each of the (at most two) most relevant confident tables of
// the stage-1 mapping, the normalized tokens of every cell of the rows
// sampled from it.
func probe2SampleRef(e *Engine, st *queryState) []string {
	m := st.model
	var is inference.Scratch
	l := is.Independent(m)
	var conf []int
	for ti := range st.tables {
		if l.Relevant(ti) && m.Rel[ti] >= minConfidentRelevance {
			conf = append(conf, ti)
		}
	}
	slices.SortStableFunc(conf, func(a, b int) int { return cmp.Compare(m.Rel[b], m.Rel[a]) })
	conf = conf[:min(2, len(conf))]
	h := fnv.New64a()
	for _, c := range st.query.Columns {
		h.Write([]byte(c))
	}
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	sample := slices.Clone(st.tokens)
	for _, ti := range conf {
		tb := st.tables[ti]
		take := min(secondProbeRows, tb.NumBodyRows())
		for _, r := range sampleRows(rng, tb.NumBodyRows(), take, nil, map[int]int{}) {
			for c := 0; c < tb.NumCols(); c++ {
				sample = append(sample, text.Normalize(tb.Body(r, c))...)
			}
		}
	}
	return sample
}
