// Package baseline implements the three comparison methods of §5:
//
//   - Basic: the strawman described at the start of §3 — threshold the
//     whole-query TF-IDF similarity against a table's context+header text
//     for relevance, then greedily match each query column to the best
//     whole-header cosine above a threshold.
//   - NbrText: Basic, with each column's similarity augmented by header
//     text imported from content-similar columns of other tables
//     (max(TI(Qℓ,tc), max_{t'c'} sim(tc,t'c')·TI(Qℓ,t'c'))).
//   - PMI2: Basic augmented with the corpus co-occurrence PMI² score of
//     §3.2.3, after [2].
//
// All three output core.Labeling values directly comparable to WWT's.
package baseline

import (
	"math"
	"sort"

	"wwt/internal/core"
	"wwt/internal/text"
	"wwt/internal/wtable"
)

// Method selects a baseline.
type Method int

// The baselines of §5.
const (
	Basic Method = iota
	NbrText
	PMI2
)

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case Basic:
		return "Basic"
	case NbrText:
		return "NbrText"
	case PMI2:
		return "PMI2"
	}
	return "Baseline(?)"
}

// Config carries the thresholds of the basic method. The zero value is not
// useful; use DefaultConfig.
type Config struct {
	// RelevanceThreshold gates the table-level decision on the cosine of
	// the whole query against header+context text.
	RelevanceThreshold float64
	// ColumnThreshold gates each per-column assignment.
	ColumnThreshold float64
}

const (
	// pmiWeight scales the PMI² contribution for the PMI2 method.
	pmiWeight float64 = 1.0
	// nbrMinSim is the minimum content similarity for importing neighbor
	// header text (NbrText method).
	nbrMinSim float64 = 0.5
)

// DefaultConfig returns thresholds tuned on the generated training split
// by internal/train's exhaustive enumeration (cmd/wwt-train).
func DefaultConfig() Config {
	return Config{RelevanceThreshold: 0.42, ColumnThreshold: 0.02}
}

// Prepared caches the analyzed views and base header-similarity scores of
// one (query, candidate set) pair so that different methods and threshold
// settings can be evaluated without re-tokenizing (used heavily by the
// training grid search).
type Prepared struct {
	q       int
	views   []*tview
	qcols   [][]string
	relSim  []float64     // per table: cosine(whole query, header+context)
	base    [][][]float64 // header cosine per (table, col, query col)
	pmiPart [][][]float64 // lazily computed PMI² per (table, col, query col)
}

// Prepare analyzes the candidates for a query once.
func Prepare(queryCols []string, tables []*wtable.Table, stats core.CorpusStats) *Prepared {
	q := len(queryCols)
	p := &Prepared{q: q}
	p.views = make([]*tview, len(tables))
	for i, t := range tables {
		p.views[i] = newTView(t, stats)
	}
	p.qcols = make([][]string, q)
	var allQ []string
	for i, s := range queryCols {
		p.qcols[i] = text.Normalize(s)
		allQ = append(allQ, p.qcols[i]...)
	}
	p.relSim = make([]float64, len(tables))
	p.base = make([][][]float64, len(tables))
	for ti, v := range p.views {
		p.relSim[ti] = cosineVec(v.stats, allQ, v.relevanceToks)
		p.base[ti] = make([][]float64, v.numCols)
		for c := 0; c < v.numCols; c++ {
			p.base[ti][c] = make([]float64, q)
			for ell := 0; ell < q; ell++ {
				p.base[ti][c][ell] = cosineVec(v.stats, p.qcols[ell], v.headerToks[c])
			}
		}
	}
	return p
}

// Solve labels the prepared candidates with the chosen method and config.
func (p *Prepared) Solve(method Method, cfg Config, pmi core.PMISource) core.Labeling {
	q := p.q
	// Copy base scores; methods augment them.
	score := make([][][]float64, len(p.views))
	for ti := range p.base {
		score[ti] = make([][]float64, len(p.base[ti]))
		for c := range p.base[ti] {
			score[ti][c] = append([]float64(nil), p.base[ti][c]...)
		}
	}
	switch method {
	case NbrText:
		augmentWithNeighborText(p.views, p.qcols, score)
	case PMI2:
		if pmi != nil {
			p.ensurePMI(pmi)
			for ti := range score {
				for c := range score[ti] {
					for ell := 0; ell < q; ell++ {
						score[ti][c][ell] += pmiWeight * p.pmiPart[ti][c][ell]
					}
				}
			}
		}
	}
	cols := make([]int, len(p.views))
	for i, v := range p.views {
		cols[i] = v.numCols
	}
	l := core.NewLabeling(q, cols)
	for ti := range p.views {
		if p.relSim[ti] < cfg.RelevanceThreshold {
			continue // stays all-nr
		}
		assignGreedy(l.Y[ti], score[ti], q, cfg.ColumnThreshold)
	}
	return l
}

// ensurePMI computes the PMI² contributions once.
func (p *Prepared) ensurePMI(pmi core.PMISource) {
	if p.pmiPart != nil {
		return
	}
	p.pmiPart = make([][][]float64, len(p.views))
	for ti, v := range p.views {
		p.pmiPart[ti] = make([][]float64, v.numCols)
		for c := 0; c < v.numCols; c++ {
			p.pmiPart[ti][c] = make([]float64, p.q)
		}
	}
	for ell, qc := range p.qcols {
		h := pmi.HeaderContextDocs(qc)
		if len(h) == 0 {
			continue
		}
		for ti, v := range p.views {
			for c := 0; c < v.numCols; c++ {
				p.pmiPart[ti][c][ell] = pmiColumn(h, v, c, pmi)
			}
		}
	}
}

// Solve labels all candidate tables with the chosen baseline method.
func Solve(method Method, cfg Config, queryCols []string, tables []*wtable.Table, stats core.CorpusStats, pmi core.PMISource) core.Labeling {
	return Prepare(queryCols, tables, stats).Solve(method, cfg, pmi)
}

// assignGreedy matches query columns to table columns best-first under the
// mutex constraint, leaving the rest na.
func assignGreedy(labels []int, score [][]float64, q int, threshold float64) {
	for c := range labels {
		labels[c] = core.NA(q)
	}
	type cand struct {
		c, ell int
		s      float64
	}
	var cands []cand
	for c := range score {
		for ell := 0; ell < q; ell++ {
			if score[c][ell] >= threshold {
				cands = append(cands, cand{c, ell, score[c][ell]})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		if cands[i].c != cands[j].c {
			return cands[i].c < cands[j].c
		}
		return cands[i].ell < cands[j].ell
	})
	usedCol := make(map[int]bool)
	usedEll := make(map[int]bool)
	for _, cd := range cands {
		if usedCol[cd.c] || usedEll[cd.ell] {
			continue
		}
		labels[cd.c] = cd.ell
		usedCol[cd.c] = true
		usedEll[cd.ell] = true
	}
}

// augmentWithNeighborText implements the NbrText similarity: a column
// inherits the best neighbor's header similarity scaled by the content
// overlap, which helps headerless tables but imports wrong headers when
// columns within a table overlap (§5.1).
func augmentWithNeighborText(views []*tview, qcols [][]string, score [][][]float64) {
	for ti, v := range views {
		for c := 0; c < v.numCols; c++ {
			for tj, w := range views {
				if tj == ti {
					continue
				}
				for c2 := 0; c2 < w.numCols; c2++ {
					sim := cellJaccard(v.cellSet[c], w.cellSet[c2])
					if sim < nbrMinSim {
						continue
					}
					for ell := range qcols {
						if s := sim * score[tj][c2][ell]; s > score[ti][c][ell] {
							score[ti][c][ell] = s
						}
					}
				}
			}
		}
	}
}

// pmiColumn mirrors core's PMI² computation on the baseline's view.
func pmiColumn(hDocs []int32, v *tview, c int, pmi core.PMISource) float64 {
	t := v.table
	rows := t.NumBodyRows()
	if rows == 0 {
		return 0
	}
	if rows > 50 {
		rows = 50
	}
	var sum float64
	for r := 0; r < rows; r++ {
		toks := text.Normalize(t.Body(r, c))
		if len(toks) == 0 {
			continue
		}
		if len(toks) > 8 {
			toks = toks[:8]
		}
		b := pmi.ContentDocs(toks)
		if len(b) == 0 {
			continue
		}
		inter := 0
		i, j := 0, 0
		for i < len(hDocs) && j < len(b) {
			switch {
			case hDocs[i] < b[j]:
				i++
			case hDocs[i] > b[j]:
				j++
			default:
				inter++
				i++
				j++
			}
		}
		sum += float64(inter) * float64(inter) / (float64(len(hDocs)) * float64(len(b)))
	}
	return sum / float64(rows)
}

// tview is the baseline's lightweight analyzed table.
type tview struct {
	table         *wtable.Table
	stats         core.CorpusStats
	numCols       int
	headerToks    [][]string
	relevanceToks []string // header + context + title text
	cellSet       []map[string]bool
}

func newTView(t *wtable.Table, stats core.CorpusStats) *tview {
	v := &tview{table: t, stats: stats, numCols: t.NumCols()}
	v.headerToks = make([][]string, v.numCols)
	for c := 0; c < v.numCols; c++ {
		var toks []string
		for r := 0; r < len(t.HeaderRows); r++ {
			toks = append(toks, text.Normalize(t.Header(r, c))...)
		}
		v.headerToks[c] = toks
		v.relevanceToks = append(v.relevanceToks, toks...)
	}
	v.relevanceToks = append(v.relevanceToks, text.Normalize(t.TitleText())...)
	v.relevanceToks = append(v.relevanceToks, text.Normalize(t.PageTitle)...)
	for _, s := range t.Context {
		v.relevanceToks = append(v.relevanceToks, text.Normalize(s.Text)...)
	}
	v.cellSet = make([]map[string]bool, v.numCols)
	for c := 0; c < v.numCols; c++ {
		set := make(map[string]bool)
		for r := 0; r < t.NumBodyRows(); r++ {
			toks := text.Normalize(t.Body(r, c))
			if len(toks) == 0 {
				continue
			}
			key := ""
			for i, tok := range toks {
				if i > 0 {
					key += " "
				}
				key += tok
			}
			set[key] = true
		}
		v.cellSet[c] = set
	}
	return v
}

func cellJaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if large[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// cosineVec computes TF-IDF cosine between two token bags under stats.
func cosineVec(stats core.CorpusStats, a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	va := make(map[string]float64, len(a))
	for _, t := range a {
		va[t] += stats.IDF(t)
	}
	vb := make(map[string]float64, len(b))
	for _, t := range b {
		vb[t] += stats.IDF(t)
	}
	// Sum in first-occurrence token order, not map order: float sums over
	// map iteration are bit-nondeterministic and this oracle is diffed
	// against the engine's deterministic scorer.
	var dot, na, nb float64
	seen := make(map[string]bool, len(va))
	for _, t := range a {
		if seen[t] {
			continue
		}
		seen[t] = true
		x := va[t]
		na += x * x
		if y, ok := vb[t]; ok {
			dot += x * y
		}
	}
	clear(seen)
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		y := vb[t]
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
