package core

import (
	"math"

	"wwt/internal/graph"
	"wwt/internal/slicex"
	"wwt/internal/wtable"
)

// Edge is one cross-table edge of the graphical model (§3.3). Its
// potential is (WAB + WBA) · [[ℓ_A = ℓ_B ∧ ℓ_A ≠ nr]] (Eq. 4), where the
// two directed terms are already weighted by we, the normalized similarity
// and the neighbor-confidence gates.
type Edge struct {
	T1, C1 int     // endpoint A: table index, column
	T2, C2 int     // endpoint B
	WAB    float64 // we · nsim(A,B) · [[conf(B) > τ]]
	WBA    float64 // we · nsim(B,A) · [[conf(A) > τ]]
	// IncludeNR marks plain-Potts ablation edges that also reward a
	// shared nr label (the failure mode §3.3 describes).
	IncludeNR bool
}

// Coef returns the symmetric potential coefficient of the edge.
func (e Edge) Coef() float64 { return e.WAB + e.WBA }

// Model is the assembled graphical model for one query against one
// candidate table set.
type Model struct {
	Params Params
	Q      []QueryColumn
	NumQ   int
	Views  []*TableView

	// Node[t][c][label]: θ(tc, ℓ) for labels 0..q-1, na, nr.
	Node [][][]float64
	// Feats[t][c][ell]: raw features behind the potentials.
	Feats [][][]Features
	// Rel[t]: R(Q,t) of Eq. 2.
	Rel []float64

	Edges []Edge
	// rawEdges caches the weight-independent edge candidates (matched
	// column pairs with normalized similarities) so Reweight can rebuild
	// Edges without redoing the pairwise similarity work.
	rawEdges []rawEdge
	// Dist[t][c][label]: stage-1 per-column label distribution ptc(ℓ)
	// from table-local max-marginals (§4.2). Conf[t][c] is
	// max_{ℓ ∈ 1..q} ptc(ℓ) — §3.3: "A column is confident only if
	// Pr(ℓ|tc) is large for some ℓ ∈ [1..q]" (na does not count).
	Dist [][][]float64
	Conf [][]float64
}

// rawEdge is a matched cross-table column pair before gating/weighting.
type rawEdge struct {
	t1, c1, t2, c2 int
	nsimAB, nsimBA float64
	sim            float64 // raw (unnormalized) similarity, for ablations
	matched        bool    // survived the one-one max-matching
}

// Builder constructs Models. Stats is required; PMI may be nil when
// Params.UsePMI is false — when set, it is probed by every query's build
// and must be safe for concurrent calls. Views, when set, memoizes
// TableView construction across builds (see ViewCache for the sharing
// rules).
type Builder struct {
	Params Params
	Stats  CorpusStats
	PMI    PMISource
	Views  *ViewCache
	// Interner, when set and Views is nil, is the symbol table cacheless
	// builds intern into, letting parameter sweeps that rebuild the same
	// tables under many configurations pay the vocabulary cost once
	// instead of per Build. Ignored when Views is set (the cache owns its
	// own interner). Cross-view similarities only ever compare views from
	// one model, and every view of one build shares whichever interner
	// applies, so results are identical either way.
	Interner *Interner
}

// viewFor returns the (possibly cached) analyzed view of one table,
// interning into the cache's symbol table or the build-local one.
func (b *Builder) viewFor(t *wtable.Table, in *Interner) *TableView {
	if b.Views != nil {
		return b.Views.view(t, b.Params)
	}
	return NewTableView(t, b.Params, in)
}

// Build assembles the full graphical model with a private scratch arena:
// the result owns its storage and is safe to retain indefinitely.
func (b *Builder) Build(queryCols []string, tables []*wtable.Table) *Model {
	return b.BuildWith(queryCols, tables, nil)
}

// BuildWith is Build through a caller-owned scratch arena. The returned
// model aliases s — every grid and edge slice is scratch-backed — so s may
// be reused only once the model is dead, and Reweight clones of a
// scratch-backed model share its feature storage (don't reuse s while a
// clone is live either). A nil s uses a fresh private arena, which is what
// makes Build safe for retention.
//
// A build is its two halves back to back: BuildTables for the per-table
// state, then Extend with no added tables for the edge set.
func (b *Builder) BuildWith(queryCols []string, tables []*wtable.Table, s *BuildScratch) *Model {
	if s == nil {
		s = &BuildScratch{}
	}
	m := b.BuildTables(queryCols, tables, s)
	m.Extend(b, nil, s)
	return m
}

// BuildTables assembles the per-table half of the model through the
// non-nil arena s: views, the SegSim/Cover/PMI² feature grid, Rel, node
// potentials and the stage-1 Dist/Conf. Each is a pure function of the
// query and one table, so a table's state does not depend on which other
// tables the model holds. The model has no edges yet (enough for
// Independent inference, which never reads them); Extend, through the same
// s, adds tables and builds the edge set. The model aliases s exactly as
// BuildWith's does.
func (b *Builder) BuildTables(queryCols []string, tables []*wtable.Table, s *BuildScratch) *Model {
	// The query's IDFs and every header's, Extend's tables included, go
	// through the memo: each distinct token reaches b.Stats once.
	s.idf.reset(b.Stats)
	m := &Model{
		Params: b.Params,
		Q:      AnalyzeQuery(queryCols, &s.idf),
		NumQ:   len(queryCols),
	}
	// Precompute H(Qℓ) doc sets once per query column for PMI². The sets
	// belong to the PMISource and are read-only; the scratch only holds
	// the headers.
	if m.Params.UsePMI && b.PMI != nil {
		s.hDocs = slicex.Grow(s.hDocs, m.NumQ)
		for ell, qc := range m.Q {
			s.hDocs[ell] = b.PMI.HeaderContextDocs(qc.Tokens)
		}
	}
	// Cacheless builds still need one interner shared by every view in the
	// model, Extend's included, or cross-view similarities would compare
	// unrelated IDs.
	s.in = b.Interner
	if b.Views == nil && s.in == nil {
		s.in = NewInterner()
	}
	m.addTables(b, tables, s)
	return m
}

// Extend appends added to a model that BuildTables (or an earlier Extend)
// built through s, computing per-table state for the added tables only,
// then builds the edge set of §3.3 once over all of them. Per-table state
// is positional and independent of the other tables, and only the edges
// depend on the whole set, so the result is identical to BuildWith over
// the concatenated table list. The grids grow in place, so the model keeps
// aliasing s, and the added tables' headers are weighed through the IDF
// memo BuildTables bound to its builder's statistics: Extend does not
// read b.Stats.
func (m *Model) Extend(b *Builder, added []*wtable.Table, s *BuildScratch) {
	m.addTables(b, added, s)
	m.buildRawEdges(s)
	m.finalizeEdges(s)
}

// addTables appends the per-table state of added to m through s. The flat
// grids grow with GrowKeep and every header is re-carved over the whole
// table list, so the tables already built keep their values and only the
// added ones are computed.
func (m *Model) addTables(b *Builder, added []*wtable.Table, s *BuildScratch) {
	n0 := len(m.Views)
	if n0 > 0 && &m.Rel[0] != &s.rel[0] {
		panic("core: model extended through an arena it was not built in")
	}
	n := n0 + len(added)
	p := m.Params
	q := m.NumQ
	labels := NumLabels(q)

	s.colOff = slicex.Grow(s.colOff, n+1)
	colOff := s.colOff
	colOff[0] = 0
	for ti, v := range m.Views {
		colOff[ti+1] = colOff[ti] + v.NumCols
	}
	for i, t := range added {
		colOff[n0+i+1] = colOff[n0+i] + t.NumCols()
	}
	total := colOff[n]

	s.views = slicex.GrowKeep(s.views, n)
	s.rel = slicex.GrowKeep(s.rel, n)
	s.feats = slicex.GrowKeep(s.feats, total*q)
	s.node = slicex.GrowKeep(s.node, total*labels)
	s.dist = slicex.GrowKeep(s.dist, total*labels)
	s.conf = slicex.GrowKeep(s.conf, total)
	s.featRows, s.featsTab = slicex.Grow(s.featRows, total), slicex.Grow(s.featsTab, n)
	s.nodeRows, s.nodeTab = slicex.Grow(s.nodeRows, total), slicex.Grow(s.nodeTab, n)
	s.distRows, s.distTab = slicex.Grow(s.distRows, total), slicex.Grow(s.distTab, n)
	s.confTab = slicex.Grow(s.confTab, n)
	m.Views, m.Rel = s.views, s.rel
	m.Feats = carveGrid(s.feats, s.featRows, s.featsTab, colOff, q)
	m.Node = carveGrid(s.node, s.nodeRows, s.nodeTab, colOff, labels)
	m.Dist = carveGrid(s.dist, s.distRows, s.distTab, colOff, labels)
	m.Conf = carveCols(s.conf, s.confTab, colOff)

	for i, t := range added {
		ti := n0 + i
		v := b.viewFor(t, s.in)
		m.Views[ti] = v
		// The view carries no corpus statistics: weigh its header under
		// this build's, and resolve the query tokens in its interner. The
		// view is fully built, so every token it holds is interned already.
		s.hdr.weigh(v, &s.idf)
		s.qids = slicex.Grow(s.qids, q)
		for ell := range m.Q {
			s.qids[ell] = slicex.Grow(s.qids[ell], len(m.Q[ell].Tokens))
			v.lookupIDs(m.Q[ell].Tokens, s.qids[ell])
		}
		feats := m.Feats[ti]
		for c := 0; c < v.NumCols; c++ {
			for ell := 0; ell < q; ell++ {
				seg, cov := segScores(&m.Q[ell], s.qids[ell], v, &s.hdr, c, p)
				f := Features{SegSim: seg, Cover: cov}
				if p.UsePMI && b.PMI != nil {
					f.PMI2 = pmi2(s.hDocs[ell], v, c, b.PMI, p, s.pmiToks[:])
				}
				feats[c][ell] = f
			}
		}
		m.Rel[ti] = tableRelevance(feats, q)
		m.tableNodes(ti)
		m.tableStage1(ti, s)
	}
}

// carveGrid points the row and per-table headers of one flat
// (global column × width) grid into its backing array — rows[gc] is the
// gc-th width-long run, tab[t] the rows of table t's columns under the
// colOff prefix sums — and returns tab.
func carveGrid[T any](backing []T, rows [][]T, tab [][][]T, colOff []int, width int) [][][]T {
	for gc := range rows {
		rows[gc] = backing[gc*width : (gc+1)*width : (gc+1)*width]
	}
	for t := range tab {
		tab[t] = rows[colOff[t]:colOff[t+1]:colOff[t+1]]
	}
	return tab
}

// carveCols is carveGrid for a grid of one value per column.
func carveCols[T any](backing []T, tab [][]T, colOff []int) [][]T {
	for t := range tab {
		tab[t] = backing[colOff[t]:colOff[t+1]:colOff[t+1]]
	}
	return tab
}

// tableNodes fills table ti's node potentials from its cached features
// under the current Params.
func (m *Model) tableNodes(ti int) {
	q := m.NumQ
	nt := m.Views[ti].NumCols
	for c, row := range m.Node[ti] {
		for label := range row {
			var f Features
			if label < q {
				f = m.Feats[ti][c][label]
			}
			row[label] = nodePotential(f, m.Rel[ti], q, nt, label, m.Params)
		}
	}
}

// Reweight returns a model identical to m except for the trainable
// weights in p: node potentials, stage-1 confidences and gated edges are
// recomputed from the cached features and raw edge candidates. Feature
// extraction (SegSim/Cover/PMI²/similarities) is NOT redone, so Reweight
// is cheap enough for the exhaustive weight enumeration of §3.4.
// p must not change feature-affecting fields (Unsegmented, UsePMI,
// reliabilities); those require a full rebuild. The clone shares the
// feature and raw-edge storage of m: if m was built through BuildWith,
// its scratch must stay unused while the clone is live.
func (m *Model) Reweight(p Params) *Model {
	clone := *m
	clone.Params = p
	n := len(m.Views)
	colOff := make([]int, n+1)
	for ti, v := range m.Views {
		colOff[ti+1] = colOff[ti] + v.NumCols
	}
	total, labels := colOff[n], NumLabels(m.NumQ)
	clone.Node = carveGrid(make([]float64, total*labels), make([][]float64, total), make([][][]float64, n), colOff, labels)
	clone.Dist = carveGrid(make([]float64, total*labels), make([][]float64, total), make([][][]float64, n), colOff, labels)
	clone.Conf = carveCols(make([]float64, total), make([][]float64, n), colOff)
	var s BuildScratch
	for ti := 0; ti < n; ti++ {
		clone.tableNodes(ti)
		clone.tableStage1(ti, &s)
	}
	clone.finalizeEdges(nil)
	return &clone
}

// Cols returns the per-table column counts.
func (m *Model) Cols() []int {
	out := make([]int, len(m.Views))
	for i, v := range m.Views {
		out[i] = v.NumCols
	}
	return out
}

// TableMaxMarginals computes µ_tc(ℓ) for one table under the mutex and
// all-Irr constraints only (§4.2.3): the must-match and min-match
// constraints are deliberately excluded so relative magnitudes stay
// undistorted. Returns [col][label] with labels 0..q-1, na, nr; the
// result is freshly allocated and safe to retain.
func (m *Model) TableMaxMarginals(ti int) [][]float64 {
	return m.tableMaxMarginals(ti, &BuildScratch{})
}

// tableMaxMarginals is TableMaxMarginals through the solver state of s; the
// returned grid aliases s and is valid until its next use.
func (m *Model) tableMaxMarginals(ti int, s *BuildScratch) [][]float64 {
	q := m.NumQ
	nt := m.Views[ti].NumCols
	node := m.Node[ti]

	var nrScore float64
	for c := 0; c < nt; c++ {
		nrScore += node[c][NR(q)]
	}
	s.outB = slicex.Grow(s.outB, nt*NumLabels(q))
	s.out = slicex.Grow(s.out, nt)
	out := s.out
	for c := 0; c < nt; c++ {
		out[c] = s.outB[c*NumLabels(q) : (c+1)*NumLabels(q)]
		out[c][NR(q)] = nrScore
	}
	// The node rows already lay out labels 0..q-1 then na (= q), the
	// kernel's order; it reads no further, so nr is left alone.
	graph.LabelMaxMarginals(node, q, out, &s.ws)
	return out
}

// tableStage1 fills table ti's stage-1 Dist and Conf from its
// max-marginals, solving in s.
func (m *Model) tableStage1(ti int, s *BuildScratch) {
	q := m.NumQ
	mu := m.tableMaxMarginals(ti, s)
	dist := m.Dist[ti]
	conf := m.Conf[ti]
	for c := range dist {
		softmaxInto(dist[c], mu[c])
		best := 0.0
		for label := 0; label < q; label++ {
			if dist[c][label] > best {
				best = dist[c][label]
			}
		}
		conf[c] = best
	}
}

// buildRawEdges realizes the weight-independent part of §3.3: content
// similarity between cross-table column pairs, normalization against each
// column's neighborhood, and the one-one max-matching per table pair.
//
// The shared cells of every cross-table column pair are counted once per
// pass (countSharedCells) into one scratch buffer. Then each table pair,
// in (t1, t2) order, reads its Jaccards from those counts, appends the
// column pairs at or above MinNeighborSim straight to the raw edges in
// (c1, c2) order and marks its matching survivors (matchPair). The
// Jaccard is inter / (|A|+|B|−inter), the same integers and expression a
// merge of the two sorted sets computes, and 0 when they share nothing.
// The query-dependent part — each column's neighborhood denominator, then
// the normalized similarities — is two passes over the raw edges in that
// (t1, t2, c1, c2) order, the accumulation order of the old map-based
// path, so float sums stay bit-identical. Every buffer is scratch-backed
// and indexed by global column offsets — s.colOff is the prefix sum
// addTables computed, colOff[t] the global offset of table t's first
// column — so a warm scratch runs the whole pass without allocating.
func (m *Model) buildRawEdges(s *BuildScratch) {
	p := m.Params
	n := len(m.Views)
	colOff := s.colOff
	m.rawEdges = nil
	if n < 2 {
		return
	}
	m.countSharedCells(s)
	raw := s.rawEdges[:0]
	for t1, a := range m.Views {
		for t2 := t1 + 1; t2 < n; t2++ {
			b := m.Views[t2]
			size2 := s.colCells[colOff[t2]:colOff[t2+1]]
			start := len(raw)
			for c1 := 0; c1 < a.NumCols; c1++ {
				g1 := colOff[t1] + c1
				len1 := int(s.colCells[g1])
				for c2, k := range s.counts[s.rowOff[g1]+colOff[t2]:][:b.NumCols] {
					var sim float64
					if k > 0 {
						sim = float64(k) / float64(len1+int(size2[c2])-int(k))
					}
					if sim >= p.MinNeighborSim {
						raw = append(raw, rawEdge{t1: t1, c1: c1, t2: t2, c2: c2, sim: sim})
					}
				}
			}
			if len(raw) > start {
				matchPair(a, b, raw[start:], p, s)
			}
		}
	}
	s.rawEdges = raw
	if len(raw) == 0 {
		return
	}
	// Neighborhood denominators depend on the whole candidate set, so they
	// stay query-side: accumulate over every survivor first, then
	// normalize. Every similar pair is a raw edge (the naive Potts
	// ablations use them all); matched marks the ones the custom potential
	// keeps.
	s.denom = slicex.GrowClear(s.denom, colOff[n])
	denom := s.denom
	for _, e := range raw {
		denom[colOff[e.t1]+e.c1] += e.sim
		denom[colOff[e.t2]+e.c2] += e.sim
	}
	for i := range raw {
		e := &raw[i]
		e.nsimAB = e.sim / (p.Lambda + denom[colOff[e.t1]+e.c1])
		e.nsimBA = e.sim / (p.Lambda + denom[colOff[e.t2]+e.c2])
	}
	m.rawEdges = raw
}

// finalizeEdges applies the weight- and confidence-dependent part of
// Eq. 4 to the raw edge candidates, honoring the ablation variant. The
// edge list is scratch-backed when s is non-nil.
func (m *Model) finalizeEdges(s *BuildScratch) {
	p := m.Params
	var edges []Edge
	if s != nil {
		edges = s.edges[:0]
	}
	for _, re := range m.rawEdges {
		switch p.Edges {
		case EdgePotts, EdgePottsNoNR:
			// Naive variants: every similar pair, raw similarity, no
			// confidence gates. Split the coefficient evenly so the
			// table-centric messages stay defined.
			w := p.We * re.sim / 2
			edges = append(edges, Edge{
				T1: re.t1, C1: re.c1, T2: re.t2, C2: re.c2,
				WAB: w, WBA: w,
				IncludeNR: p.Edges == EdgePotts,
			})
		default:
			if !re.matched {
				continue
			}
			var wab, wba float64
			if m.Conf[re.t2][re.c2] > p.ConfidenceThreshold {
				wab = p.We * re.nsimAB
			}
			if m.Conf[re.t1][re.c1] > p.ConfidenceThreshold {
				wba = p.We * re.nsimBA
			}
			if wab == 0 && wba == 0 {
				continue
			}
			edges = append(edges, Edge{T1: re.t1, C1: re.c1, T2: re.t2, C2: re.c2, WAB: wab, WBA: wba})
		}
	}
	if s != nil {
		s.edges = edges
	}
	// An edge-free model keeps a nil Edges slice in both modes, so pooled
	// and fresh builds stay comparable with reflect.DeepEqual.
	if len(edges) == 0 {
		edges = nil
	}
	m.Edges = edges
}

// EdgePotential evaluates Eq. 4 for an edge under labels la, lb.
func (m *Model) EdgePotential(e Edge, la, lb int) float64 {
	if la != lb {
		return 0
	}
	if la == NR(m.NumQ) && !e.IncludeNR {
		return 0
	}
	return e.Coef()
}

// Score evaluates the overall objective (Eq. 9) of a labeling: node
// potentials plus edge potentials, with -Inf for any violated hard
// constraint (Eq. 5–8).
func (m *Model) Score(l Labeling) float64 {
	q := m.NumQ
	var total float64
	for ti, v := range m.Views {
		labels := l.Y[ti]
		if len(labels) != v.NumCols {
			return math.Inf(-1)
		}
		nrCount := 0
		realCount := 0
		seen := make(map[int]bool)
		hasFirst := false
		for c, y := range labels {
			total += m.Node[ti][c][y]
			switch {
			case y == NR(q):
				nrCount++
			case y >= 0 && y < q:
				if seen[y] {
					return math.Inf(-1) // mutex
				}
				seen[y] = true
				realCount++
				if y == 0 {
					hasFirst = true
				}
			}
		}
		if nrCount != 0 && nrCount != len(labels) {
			return math.Inf(-1) // all-Irr
		}
		if nrCount == 0 {
			if !hasFirst {
				return math.Inf(-1) // must-match
			}
			if realCount < m.Params.MinMatch(q) {
				return math.Inf(-1) // min-match
			}
		}
	}
	for _, e := range m.Edges {
		total += m.EdgePotential(e, l.Y[e.T1][e.C1], l.Y[e.T2][e.C2])
	}
	return total
}

// softmaxInto writes the softmax of xs into out (same length). -Inf
// entries get probability zero; an all -Inf input yields the uniform
// distribution.
func softmaxInto(out, xs []float64) {
	best := math.Inf(-1)
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	if math.IsInf(best, -1) {
		for i := range out {
			out[i] = 1 / float64(len(xs))
		}
		return
	}
	var sum float64
	for i, x := range xs {
		if math.IsInf(x, -1) {
			out[i] = 0
			continue
		}
		out[i] = math.Exp(x - best)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}
