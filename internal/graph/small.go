package graph

import (
	"math"
	"math/bits"

	"wwt/internal/slicex"
)

// The exact small-assignment kernel. Every assignment problem on the
// column-mapping hot path is tiny: a table-local labeling has q query
// labels (two to four) plus na, and a table pair's matching touches a
// handful of columns. Both are solved here by dynamic programming over
// the set of used labels (or used columns) as a bitmask. The general MCMF
// reduction is the fallback, taken when:
//
//   - the mask would exceed maxKernelBits;
//   - a weight is not finite, or a matching weight is negative;
//   - the optimum is not unique by more than tieTol.
//
// The tie rule keeps the answer identical to the MCMF reduction's.
// MCMF's shortest-path searches ignore improvements below costEps, so
// its solution can trail the exact optimum by a small margin, and among
// exactly tied optima it picks by edge order. When the kernel's optimum
// beats every other solution by more than tieTol, it is the solution
// MCMF returns too. Anything closer is handed to MCMF, so tie-breaking
// stays MCMF's.

// maxKernelBits caps the bitmask state of the exact kernel: 2^8 states.
const maxKernelBits = 8

// tieTol bounds how far the MCMF reduction of a problem can trail its
// exact optimum when its network has n nodes: each augmenting path may
// miss costEps per edge, and there are fewer than n paths of fewer than n
// edges each.
func tieTol(n int) float64 {
	return costEps * float64(n) * float64(n)
}

// LabelMAP solves the table-local labeling problem of §4.1. Row c of w
// weighs column c's labels: w[c][j] for query label j < q and w[c][q] for
// na; entries past q are ignored. Every column takes exactly one of them,
// a query label at most once, and at least minReal columns a query label.
// The result maximizes the total weight. This is the assignment of
// SolveAssignment with unit capacities on the columns and labels and
// capacity len(w)-minReal on na.
//
// match[c] is the chosen label, q for na. total is the optimum.
// outside is the value of the caller's alternative to every labeling, the
// all-nr labeling of §4.1. Whenever total exceeds outside, match and the
// side of outside that total falls on are exactly the MCMF reduction's.
// Below outside, match is some optimal labeling. Both results alias ws and
// are valid until its next solve.
func LabelMAP(w [][]float64, q, minReal int, outside float64, ws *Workspace) (match []int, total float64) {
	nt := len(w)
	if total, gap, ok := ws.labelMAP(w, q, minReal); ok {
		// Source, sink, nt columns, q labels, na and one dummy.
		tol := tieTol(nt + q + 4)
		if total < outside-tol || (total > outside+tol && gap > tol) {
			return ws.labels, total
		}
	}
	capL := fillOnes(&ws.capL, nt)
	capR := fillOnes(&ws.capR, q+1)
	capR[q] = nt - minReal
	sol := SolveAssignmentWS(capL, capR, w, ws)
	return sol.MatchL, sol.Total
}

// labelMAP is LabelMAP's dynamic program over columns in order. The state
// is the set of query labels used so far. Each state keeps its best and
// second-best value over distinct partial labelings, and the label its
// best one gave the column. It returns the optimum, its gap to the best
// different labeling, and false when the problem is outside the kernel.
// The labeling is left in ws.labels.
func (ws *Workspace) labelMAP(w [][]float64, q, minReal int) (total, gap float64, ok bool) {
	nt := len(w)
	if nt == 0 || q > maxKernelBits || !finiteRows(w, q+1) {
		return 0, 0, false
	}
	ns := 1 << q
	cur1, cur2, nxt1, nxt2 := ws.layers(ns)
	ws.choice = slicex.Grow(ws.choice, nt*ns)
	for c, row := range w {
		choice := ws.choice[c*ns : (c+1)*ns]
		na := row[q]
		for s := 0; s < ns; s++ {
			b1, b2, ch := cur1[s]+na, cur2[s]+na, int8(q)
			for m := s; m != 0; m &= m - 1 {
				j := bits.TrailingZeros(uint(m))
				p := s &^ (1 << j)
				v1 := cur1[p] + row[j]
				if v1 > b1 {
					ch = int8(j)
				}
				b1, b2 = top2(b1, b2, v1, cur2[p]+row[j])
			}
			nxt1[s], nxt2[s], choice[s] = b1, b2, ch
		}
		cur1, cur2, nxt1, nxt2 = nxt1, nxt2, cur1, cur2
	}
	best, second, bestS := math.Inf(-1), math.Inf(-1), -1
	for s := 0; s < ns; s++ {
		if bits.OnesCount(uint(s)) < minReal {
			continue
		}
		if cur1[s] > best {
			bestS = s
		}
		best, second = top2(best, second, cur1[s], cur2[s])
	}
	if bestS < 0 {
		return 0, 0, false
	}
	ws.labels = slicex.Grow(ws.labels, nt)
	for c, s := nt-1, bestS; c >= 0; c-- {
		j := int(ws.choice[c*ns+s])
		ws.labels[c] = j
		if j < q {
			s &^= 1 << j
		}
	}
	return best, best - second, true
}

// LabelMaxMarginals fills mu[c][j], for j <= q, with the best total weight
// of the table-local labeling problem when column c is forced to label j
// (q for na). Weights are read as in LabelMAP; na is unbounded, so every
// forcing is feasible (§4.2.3, Fig. 3). The max-marginals are values, not
// choices, so ties do not matter. They come from one forward and one
// backward pass in O(nt·q·2^q). The MCMF residual-graph computation is
// the fallback outside the kernel.
func LabelMaxMarginals(w [][]float64, q int, mu [][]float64, ws *Workspace) {
	if ws.labelMaxMarginals(w, q, mu) {
		return
	}
	nt := len(w)
	capL := fillOnes(&ws.capL, nt)
	capR := fillOnes(&ws.capR, q+1)
	capR[q] = nt
	mm := SolveAssignmentWS(capL, capR, w, ws).MaxMarginals()
	for c := range mu {
		copy(mu[c][:q+1], mm[c])
	}
}

// labelMaxMarginals is LabelMaxMarginals' dynamic program. The backward
// pass keeps, per column c and label set T, the best weight of columns
// c.. using only labels in T. The forward pass keeps, per label set S, the
// best weight of the columns before c using exactly S. A forcing then
// joins every S with the labels S and the forced label leave free.
func (ws *Workspace) labelMaxMarginals(w [][]float64, q int, mu [][]float64) bool {
	nt := len(w)
	if q > maxKernelBits || !finiteRows(w, q+1) {
		return false
	}
	ns := 1 << q
	full := ns - 1
	ws.back = slicex.Grow(ws.back, (nt+1)*ns)
	clear(ws.back[nt*ns:])
	for c := nt - 1; c >= 0; c-- {
		row, next, g := w[c], ws.back[(c+1)*ns:(c+2)*ns], ws.back[c*ns:(c+1)*ns]
		for t := 0; t < ns; t++ {
			b := row[q] + next[t]
			for m := t; m != 0; m &= m - 1 {
				j := bits.TrailingZeros(uint(m))
				b = max(b, row[j]+next[t&^(1<<j)])
			}
			g[t] = b
		}
	}
	fwd, nxt, _, _ := ws.layers(ns)
	for c, row := range w {
		next := ws.back[(c+1)*ns : (c+2)*ns]
		for j := 0; j <= q; j++ {
			free := full
			if j < q {
				free &^= 1 << j
			}
			b := math.Inf(-1)
			for s := 0; s < ns; s++ {
				if s&^free == 0 {
					b = max(b, fwd[s]+next[free&^s])
				}
			}
			mu[c][j] = b + row[j]
		}
		for s := 0; s < ns; s++ {
			b := fwd[s] + row[q]
			for m := s; m != 0; m &= m - 1 {
				j := bits.TrailingZeros(uint(m))
				b = max(b, fwd[s&^(1<<j)]+row[j])
			}
			nxt[s] = b
		}
		fwd, nxt = nxt, fwd
	}
	return true
}

// Cell is one weighted cell of a sparse matching grid: left node L, right
// node R, weight W.
type Cell struct {
	L, R int32
	W    float64
}

// MatchCells solves the one-one maximum-weight matching of an nL x nR grid
// whose cells are all zero except the listed ones, and reports which
// listed cells the matching uses. This is SolveAssignment with unit
// capacities on the grid (§3.3, "Max-matching Edges"). cells must be
// sorted by (L, R) without repeats. The flags alias ws and are valid until
// its next solve.
//
// With non-negative weights the matched cells form the maximum-weight
// matching of the listed cells alone, because the zero cells only complete
// it. Cells that share no row or column are therefore all matched, without
// a solve when DisjointMatched holds. Other grids run a dynamic program
// over rows whose state is the set of right nodes used.
func MatchCells(nL, nR int, cells []Cell, ws *Workspace) []bool {
	ws.matched = slicex.GrowClear(ws.matched, len(cells))
	if ws.matchCells(nL, nR, cells) {
		return ws.matched
	}
	capL := fillOnes(&ws.capL, nL)
	capR := fillOnes(&ws.capR, nR)
	ws.dense = slicex.GrowClear(ws.dense, nL*nR)
	ws.rows = slicex.Grow(ws.rows, nL)
	for i := range ws.rows {
		ws.rows[i] = ws.dense[i*nR : (i+1)*nR : (i+1)*nR]
	}
	for _, e := range cells {
		ws.rows[e.L][e.R] = e.W
	}
	sol := SolveAssignmentWS(capL, capR, ws.rows, ws)
	for i, e := range cells {
		ws.matched[i] = sol.MatchL[e.L] == int(e.R)
	}
	return ws.matched
}

// DisjointMatched reports whether MatchCells marks all n cells of an
// nL x nR grid without solving, when no two of them share a row or column
// and every weight lies in [minW, maxW]: the cells fit the kernel's mask,
// and each outweighs the tie tolerance, so the matching that takes them
// all beats every other by more than it. Callers that can bound the
// weights decide such a matching without computing them.
func DisjointMatched(nL, nR, n int, minW, maxW float64) bool {
	return n <= maxKernelBits && minW > tieTol(nL+nR+3) && maxW < math.Inf(1)
}

// matchCells is MatchCells' exact path. It fills ws.matched and reports
// whether it could decide the matching.
func (ws *Workspace) matchCells(nL, nR int, cells []Cell) bool {
	tol := tieTol(nL + nR + 3) // source, sink, both sides and one dummy
	// Give each right node a mask bit, checking weights and whether the
	// cells share a row or column on the way.
	ws.bit = slicex.Grow(ws.bit, nR)
	for i := range ws.bit {
		ws.bit[i] = -1
	}
	k, disjoint, minW, maxW := 0, true, math.Inf(1), math.Inf(-1)
	for i, e := range cells {
		if !(e.W >= 0) || math.IsInf(e.W, 1) {
			return false
		}
		minW, maxW = min(minW, e.W), max(maxW, e.W)
		if i > 0 && cells[i-1].L == e.L {
			disjoint = false
		}
		if ws.bit[e.R] >= 0 {
			disjoint = false
			continue
		}
		if k == maxKernelBits {
			return false
		}
		ws.bit[e.R] = int8(k)
		k++
	}
	if disjoint && DisjointMatched(nL, nR, len(cells), minW, maxW) {
		for i := range ws.matched {
			ws.matched[i] = true
		}
		return true
	}

	// One DP row per run of cells with equal L.
	ns := 1 << k
	cur1, cur2, nxt1, nxt2 := ws.layers(ns)
	ws.runs = ws.runs[:0]
	for i := range cells {
		if i == 0 || cells[i-1].L != cells[i].L {
			ws.runs = append(ws.runs, int32(i))
		}
	}
	ws.runs = append(ws.runs, int32(len(cells)))
	nRows := len(ws.runs) - 1
	ws.choice = slicex.Grow(ws.choice, nRows*ns)
	for r := 0; r < nRows; r++ {
		run := cells[ws.runs[r]:ws.runs[r+1]]
		choice := ws.choice[r*ns : (r+1)*ns]
		for s := 0; s < ns; s++ {
			b1, b2, ch := cur1[s], cur2[s], int8(-1)
			for i, e := range run {
				bit := 1 << ws.bit[e.R]
				if s&bit == 0 {
					continue
				}
				p := s &^ bit
				v1 := cur1[p] + e.W
				if v1 > b1 {
					ch = int8(i)
				}
				b1, b2 = top2(b1, b2, v1, cur2[p]+e.W)
			}
			nxt1[s], nxt2[s], choice[s] = b1, b2, ch
		}
		cur1, cur2, nxt1, nxt2 = nxt1, nxt2, cur1, cur2
	}
	best, second, bestS := math.Inf(-1), math.Inf(-1), 0
	for s := 0; s < ns; s++ {
		if cur1[s] > best {
			bestS = s
		}
		best, second = top2(best, second, cur1[s], cur2[s])
	}
	if best-second <= tol {
		return false
	}
	for r, s := nRows-1, bestS; r >= 0; r-- {
		if ch := ws.choice[r*ns+s]; ch >= 0 {
			i := int(ws.runs[r]) + int(ch)
			ws.matched[i] = true
			s &^= 1 << ws.bit[cells[i].R]
		}
	}
	return true
}

// top2 merges a candidate's best and second-best values (v1 >= v2) into a
// running best and second best (b1 >= b2) over distinct solutions. A
// candidate equal to the running best becomes the second best, so an exact
// tie shows as a zero gap.
func top2(b1, b2, v1, v2 float64) (float64, float64) {
	if v1 > b1 {
		return v1, max(b1, v2)
	}
	return b1, max(b2, v1)
}

// layers returns the four ns-long DP layers of a solve: the current and
// next best values, and the current and next second-best values. The
// current layers start at the empty set with value 0, every other state
// unreachable.
func (ws *Workspace) layers(ns int) (cur1, cur2, nxt1, nxt2 []float64) {
	ws.dp = slicex.Grow(ws.dp, 4*ns)
	for i := range ws.dp {
		ws.dp[i] = math.Inf(-1)
	}
	ws.dp[0] = 0
	return ws.dp[:ns], ws.dp[ns : 2*ns], ws.dp[2*ns : 3*ns], ws.dp[3*ns:]
}

// finiteRows reports whether the first n entries of every row are finite.
func finiteRows(w [][]float64, n int) bool {
	for _, row := range w {
		for _, v := range row[:n] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}

// fillOnes resizes *buf to n unit capacities and returns it.
func fillOnes(buf *[]int, n int) []int {
	*buf = slicex.Grow(*buf, n)
	for i := range *buf {
		(*buf)[i] = 1
	}
	return *buf
}
