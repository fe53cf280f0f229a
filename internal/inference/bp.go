package inference

import (
	"math"

	"wwt/internal/core"
)

// bpIterations and bpDamping tune loopy belief propagation. BP on this
// model contends with many dissociative (mutex) edges, which is exactly
// the regime where the paper found it approximate poorly (§5.3).
const (
	bpIterations = 15
	bpDamping    = 0.5
)

// SolveBP runs loopy min-sum belief propagation on the pairwise MRF with
// mutex and all-Irr encoded as pairwise penalties, decodes beliefs
// greedily, and repairs residual constraint violations per table.
func SolveBP(m *core.Model) core.Labeling {
	p := newPairwiseMRF(m, true)
	L := p.labels
	msg := newMessages(len(p.edges), L)
	newMsg := make([]float64, L)
	h := make([]float64, L)

	for iter := 0; iter < bpIterations; iter++ {
		var maxDelta float64
		for ei, e := range p.edges {
			for dir := 0; dir < 2; dir++ {
				from := e.u
				if dir == 1 {
					from = e.v
				}
				// h(l) = unary[from](l) + incoming messages except along ei.
				copy(h, p.unary[from])
				for _, oe := range p.nbrs[from] {
					if oe == ei {
						continue
					}
					in := incoming(p, msg, oe, from)
					for l := 0; l < L; l++ {
						h[l] += in[l]
					}
				}
				for lt := 0; lt < L; lt++ {
					best := math.Inf(1)
					for lf := 0; lf < L; lf++ {
						var pe float64
						if dir == 0 {
							pe = p.pairEnergy(e, lf, lt)
						} else {
							pe = p.pairEnergy(e, lt, lf)
						}
						if v := h[lf] + pe; v < best {
							best = v
						}
					}
					newMsg[lt] = best
				}
				normalizeMin(newMsg)
				slot := msg[2*ei+dir]
				for l := 0; l < L; l++ {
					next := bpDamping*slot[l] + (1-bpDamping)*newMsg[l]
					if d := math.Abs(next - slot[l]); d > maxDelta {
						maxDelta = d
					}
					slot[l] = next
				}
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}

	y := make([]int, p.nVars)
	for u := 0; u < p.nVars; u++ {
		best := math.Inf(1)
		for l := 0; l < L; l++ {
			b := p.unary[u][l]
			for _, ei := range p.nbrs[u] {
				b += incoming(p, msg, ei, u)[l]
			}
			if b < best {
				best = b
				y[u] = l
			}
		}
	}
	return repairTableConstraints(m, p.toLabeling(y))
}

// newMessages allocates the zeroed messages of a pairwise MRF with the
// given edge count and label count: msg[2*e] is edge e's message u -> v,
// msg[2*e+1] its message v -> u.
func newMessages(edges, L int) [][]float64 {
	b := make([]float64, 2*edges*L)
	msg := make([][]float64, 2*edges)
	for i := range msg {
		msg[i] = b[i*L : (i+1)*L : (i+1)*L]
	}
	return msg
}

// incoming returns the message arriving at variable 'at' along edge ei.
func incoming(p *pairwiseMRF, msg [][]float64, ei, at int) []float64 {
	if p.edges[ei].v == at {
		return msg[2*ei] // u -> v
	}
	return msg[2*ei+1] // v -> u
}

func normalizeMin(xs []float64) {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	if math.IsInf(m, 1) {
		return
	}
	for i := range xs {
		xs[i] -= m
	}
}
