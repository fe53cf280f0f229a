package inference

import (
	"math"

	"wwt/internal/core"
)

// trwsIterations: each iteration is one forward plus one backward sweep.
// TRW-S converges slowly on this model's dissociative mutex edges; the
// paper measured it ~30x slower than the table-centric algorithm and least
// accurate of the collective methods (§5.3).
const trwsIterations = 100

// SolveTRWS runs sequential tree-reweighted message passing (Kolmogorov,
// 2006) on the pairwise MRF (mutex + all-Irr as pairwise penalties) in
// energy form, decodes sequentially, and repairs per-table violations.
func SolveTRWS(m *core.Model) core.Labeling {
	p := newPairwiseMRF(m, true)
	L := p.labels
	n := p.nVars

	// Edge appearance coefficients: gamma_u = 1/max(#fwd, #bwd) over the
	// monotonic chains induced by the variable order.
	gamma := make([]float64, n)
	for u := 0; u < n; u++ {
		fwd, bwd := 0, 0
		for _, ei := range p.nbrs[u] {
			other := p.edges[ei].u
			if other == u {
				other = p.edges[ei].v
			}
			if other > u {
				fwd++
			} else {
				bwd++
			}
		}
		d := fwd
		if bwd > d {
			d = bwd
		}
		if d == 0 {
			d = 1
		}
		gamma[u] = 1 / float64(d)
	}

	msg := newMessages(len(p.edges), L)
	hat := make([]float64, L)
	newMsg := make([]float64, L)

	sweep := func(forward bool) {
		for step := 0; step < n; step++ {
			u := step
			if !forward {
				u = n - 1 - step
			}
			// theta-hat_u = unary + all incoming messages.
			for l := 0; l < L; l++ {
				hat[l] = p.unary[u][l]
			}
			for _, ei := range p.nbrs[u] {
				in := incoming(p, msg, ei, u)
				for l := 0; l < L; l++ {
					hat[l] += in[l]
				}
			}
			for _, ei := range p.nbrs[u] {
				e := p.edges[ei]
				other := e.u
				if other == u {
					other = e.v
				}
				if forward && other <= u || !forward && other >= u {
					continue
				}
				in := incoming(p, msg, ei, u)
				for lo := 0; lo < L; lo++ {
					best := math.Inf(1)
					for lu := 0; lu < L; lu++ {
						var pe float64
						if e.u == u {
							pe = p.pairEnergy(e, lu, lo)
						} else {
							pe = p.pairEnergy(e, lo, lu)
						}
						if v := gamma[u]*hat[lu] - in[lu] + pe; v < best {
							best = v
						}
					}
					newMsg[lo] = best
				}
				normalizeMin(newMsg)
				out := outgoing(p, msg, ei, u)
				copy(out, newMsg)
			}
		}
	}

	for iter := 0; iter < trwsIterations; iter++ {
		sweep(true)
		sweep(false)
	}

	// Sequential decode: condition each variable on already-decoded
	// earlier neighbors.
	y := make([]int, n)
	decided := make([]bool, n)
	for u := 0; u < n; u++ {
		bestE := math.Inf(1)
		for l := 0; l < L; l++ {
			e := p.unary[u][l]
			for _, ei := range p.nbrs[u] {
				ed := p.edges[ei]
				other := ed.u
				if other == u {
					other = ed.v
				}
				if decided[other] {
					if ed.u == u {
						e += p.pairEnergy(ed, l, y[other])
					} else {
						e += p.pairEnergy(ed, y[other], l)
					}
				} else {
					e += incoming(p, msg, ei, u)[l]
				}
			}
			if e < bestE {
				bestE = e
				y[u] = l
			}
		}
		decided[u] = true
	}
	return repairTableConstraints(m, p.toLabeling(y))
}

// outgoing returns the message slot leaving variable 'from' along edge ei.
func outgoing(p *pairwiseMRF, msg [][]float64, ei, from int) []float64 {
	if p.edges[ei].u == from {
		return msg[2*ei] // u -> v
	}
	return msg[2*ei+1] // v -> u
}
