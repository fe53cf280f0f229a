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

// tablePair identifies one unordered candidate-table pair of the edge grid;
// off is where its shared-cell count grid starts in BuildScratch.counts.
type tablePair struct{ t1, t2, off int }

// pairRange locates one table pair's surviving column pairs in the build
// scratch: workers[w].sims[lo:hi].
type pairRange struct{ w, lo, hi int }

// Builder constructs Models. Stats is required; PMI may be nil when
// Params.UsePMI is false — when set, it is probed from Build's worker pool
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
//
// The per-table work is independent across tables and runs on a
// GOMAXPROCS-wide worker pool; every worker writes only its own table's
// slots and solves in its own slot of s, so the result is identical to
// the serial build.
func (b *Builder) BuildTables(queryCols []string, tables []*wtable.Table, s *BuildScratch) *Model {
	m := &Model{
		Params: b.Params,
		Q:      AnalyzeQuery(queryCols, b.Stats),
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
// aliasing s.
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

	workers := numWorkers(len(added))
	s.workers = slicex.GrowKeep(s.workers, workers)
	slots := s.workers
	parallelForWorkers(len(added), workers, func(w, i int) {
		ti := n0 + i
		sc := &slots[w]
		v := b.viewFor(added[i], s.in)
		m.Views[ti] = v
		// The view carries no corpus statistics: weigh its header under
		// this build's, and resolve the query tokens in its interner. The
		// view is fully built, so every token it holds is interned already.
		sc.hdr.weigh(v, b.Stats)
		sc.qids = slicex.Grow(sc.qids, q)
		for ell := range m.Q {
			sc.qids[ell] = slicex.Grow(sc.qids[ell], len(m.Q[ell].Tokens))
			v.lookupIDs(m.Q[ell].Tokens, sc.qids[ell])
		}
		feats := m.Feats[ti]
		for c := 0; c < v.NumCols; c++ {
			for ell := 0; ell < q; ell++ {
				seg, cov := segScores(&m.Q[ell], sc.qids[ell], v, &sc.hdr, c, p)
				f := Features{SegSim: seg, Cover: cov}
				if p.UsePMI && b.PMI != nil {
					f.PMI2 = pmi2(s.hDocs[ell], v, c, b.PMI, p)
				}
				feats[c][ell] = f
			}
		}
		m.Rel[ti] = tableRelevance(feats, q)
		m.tableNodes(ti)
		m.tableStage1(ti, &slots[w])
	})
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
	workers := numWorkers(n)
	slots := make([]workerScratch, workers)
	parallelForWorkers(n, workers, func(w, ti int) {
		clone.tableNodes(ti)
		clone.tableStage1(ti, &slots[w])
	})
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
	return m.tableMaxMarginals(ti, &workerScratch{})
}

// tableMaxMarginals is TableMaxMarginals through one worker's scratch; the
// returned grid aliases sc and is valid until its next use.
func (m *Model) tableMaxMarginals(ti int, sc *workerScratch) [][]float64 {
	q := m.NumQ
	nt := m.Views[ti].NumCols
	node := m.Node[ti]

	var nrScore float64
	for c := 0; c < nt; c++ {
		nrScore += node[c][NR(q)]
	}
	sc.outB = slicex.Grow(sc.outB, nt*NumLabels(q))
	sc.out = slicex.Grow(sc.out, nt)
	out := sc.out
	for c := 0; c < nt; c++ {
		out[c] = sc.outB[c*NumLabels(q) : (c+1)*NumLabels(q)]
		out[c][NR(q)] = nrScore
	}
	// The node rows already lay out labels 0..q-1 then na (= q), the
	// kernel's order; it reads no further, so nr is left alone.
	graph.LabelMaxMarginals(node, q, out, &sc.ws)
	return out
}

// tableStage1 fills table ti's stage-1 Dist and Conf from its
// max-marginals, solving in the worker slot sc.
func (m *Model) tableStage1(ti int, sc *workerScratch) {
	q := m.NumQ
	mu := m.tableMaxMarginals(ti, sc)
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
// pass (countSharedCells), serially, into one scratch buffer. The per-pair
// work — the Jaccard grid read from those counts and the blended
// max-matching — is independent across table pairs, so it fans out over
// the worker pool, partitioned by first table. Each pair runs in its
// worker's slot of the scratch, appending its survivors to that slot's
// arena and recording their range there, so a warm scratch runs the whole
// pass without allocating. The query-dependent part — summing each
// column's neighborhood denominator and normalizing — runs as a
// deterministic serial merge over the pairs in (t1, t2, c1, c2) order, the
// exact accumulation order of the old serial map-based path, so float sums
// stay bit-identical. The denom / edge-index maps of that path are
// replaced by flat arrays indexed by global column offsets, all
// scratch-backed: s.colOff is the prefix sum addTables computed —
// colOff[t] is the global offset of table t's first column — so the
// feature grid and the edge offsets share one source of truth.
func (m *Model) buildRawEdges(s *BuildScratch) {
	p := m.Params
	n := len(m.Views)
	colOff := s.colOff
	m.rawEdges = nil
	if n < 2 {
		return
	}

	pairs := s.pairs[:0]
	size := 0
	for t1 := 0; t1 < n; t1++ {
		for t2 := t1 + 1; t2 < n; t2++ {
			pairs = append(pairs, tablePair{t1, t2, size})
			size += m.Views[t1].NumCols * m.Views[t2].NumCols
		}
	}
	s.pairs = pairs
	m.countSharedCells(s, size)
	s.ranges = slicex.Grow(s.ranges, len(pairs))
	ranges := s.ranges
	// The pool hands out first tables, not pairs: a pair's compute is too
	// small to pay for a dispatch of its own.
	workers := numWorkers(n - 1)
	s.workers = slicex.GrowKeep(s.workers, workers)
	ws := s.workers
	for w := range ws {
		ws[w].sims = ws[w].sims[:0]
	}
	// One worker runs inline: a closure handed to the pool escapes to the
	// heap, and would be the warm pass's only allocation.
	if workers == 1 {
		for t1 := 0; t1 < n-1; t1++ {
			m.firstTablePairSims(s, 0, t1)
		}
	} else {
		parallelForWorkers(n-1, workers, func(w, t1 int) { m.firstTablePairSims(s, w, t1) })
	}

	total := 0
	for w := range ws {
		total += len(ws[w].sims)
	}
	if total == 0 {
		return
	}
	// Neighborhood denominators depend on the whole candidate set, so they
	// stay query-side: accumulate over every surviving pair first, then
	// normalize.
	s.denom = slicex.GrowClear(s.denom, colOff[n])
	denom := s.denom
	for i, r := range ranges {
		pr := pairs[i]
		off1, off2 := colOff[pr.t1], colOff[pr.t2]
		for _, e := range ws[r.w].sims[r.lo:r.hi] {
			denom[off1+int(e.c1)] += e.sim
			denom[off2+int(e.c2)] += e.sim
		}
	}
	// Every similar pair becomes a raw edge (the naive Potts ablations use
	// them all); matched marks the max-matching survivors the custom
	// potential keeps.
	raw := s.rawEdges[:0]
	for i, r := range ranges {
		pr := pairs[i]
		off1, off2 := colOff[pr.t1], colOff[pr.t2]
		for _, e := range ws[r.w].sims[r.lo:r.hi] {
			raw = append(raw, rawEdge{
				t1: pr.t1, c1: int(e.c1), t2: pr.t2, c2: int(e.c2),
				nsimAB:  e.sim / (p.Lambda + denom[off1+int(e.c1)]),
				nsimBA:  e.sim / (p.Lambda + denom[off2+int(e.c2)]),
				sim:     e.sim,
				matched: e.matched,
			})
		}
	}
	s.rawEdges = raw
	m.rawEdges = raw
}

// firstTablePairSims computes every table pair (t1, t2 > t1) of the edge
// pass in worker w's slot, recording where each pair's survivors landed in
// that slot's arena.
func (m *Model) firstTablePairSims(s *BuildScratch, w, t1 int) {
	n := len(m.Views)
	sc := &s.workers[w]
	a := m.Views[t1]
	for i := pairIndex(n, t1, t1+1); i <= pairIndex(n, t1, n-1); i++ {
		pr := s.pairs[i]
		b := m.Views[pr.t2]
		lo := len(sc.sims)
		off1, off2 := s.colOff[t1], s.colOff[pr.t2]
		computePairSims(a, b, s.counts[pr.off:pr.off+a.NumCols*b.NumCols],
			s.colCells[off1:off1+a.NumCols], s.colCells[off2:off2+b.NumCols], m.Params, sc)
		s.ranges[i] = pairRange{w: w, lo: lo, hi: len(sc.sims)}
	}
}

// pairIndex is the position of table pair (t1, t2), t1 < t2, in the edge
// pass's pairs: all pairs of first table 0, then of 1, and so on.
func pairIndex(n, t1, t2 int) int {
	return t1*(n-1) - t1*(t1-1)/2 + t2 - t1 - 1
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
