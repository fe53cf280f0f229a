package graph

import (
	"math"

	"wwt/internal/slicex"
)

// Inf is the effectively-infinite cost/capacity used to encode hard
// constraints without overflowing float64 arithmetic.
const Inf = 1e15

// MCMF is a min-cost max-flow network with integer capacities and float64
// costs. Edges are stored in pairs: edge i and i^1 are mutual reverses.
// Adjacency is a forward-star (head/tail/next intrusive lists), so adding
// an edge never allocates beyond the amortized array appends — the
// assignment reductions build thousands of small networks per query. Lists
// are kept in insertion order: shortest-path searches break cost ties by
// the first edge relaxed, and callers (max-marginals, matching extraction)
// observe which equally-cheap path wins, so iteration order is part of the
// solver's contract.
type MCMF struct {
	n    int
	to   []int32
	capa []int32
	cost []float64
	head []int32 // node -> first incident edge id, -1 when none
	tail []int32 // node -> last incident edge id, -1 when none
	next []int32 // edge id -> next incident edge id at the same node

	// Run scratch, lazily sized and reused across Run calls (and across
	// solves when the MCMF itself is reused through a Workspace).
	dist     []float64
	inQueue  []bool
	prevEdge []int32
	queue    []int32
}

// Reserve preallocates room for m AddEdge calls.
func (g *MCMF) Reserve(m int) {
	if cap(g.to)-len(g.to) >= 2*m {
		return
	}
	grow := len(g.to) + 2*m
	to := make([]int32, len(g.to), grow)
	copy(to, g.to)
	g.to = to
	capa := make([]int32, len(g.capa), grow)
	copy(capa, g.capa)
	g.capa = capa
	cost := make([]float64, len(g.cost), grow)
	copy(cost, g.cost)
	g.cost = cost
	next := make([]int32, len(g.next), grow)
	copy(next, g.next)
	g.next = next
}

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, plus the implicit zero-capacity reverse edge. It returns the edge
// id; EdgeFlow(id) reads its flow after Run.
func (g *MCMF) AddEdge(u, v, capacity int, cost float64) int {
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.capa = append(g.capa, int32(capacity), 0)
	g.cost = append(g.cost, cost, -cost)
	g.next = append(g.next, -1, -1)
	g.link(u, int32(id))
	g.link(v, int32(id+1))
	return id
}

// link appends edge id to node u's incident list, preserving insertion
// order.
func (g *MCMF) link(u int, id int32) {
	if g.tail[u] < 0 {
		g.head[u] = id
	} else {
		g.next[g.tail[u]] = id
	}
	g.tail[u] = id
}

// EdgeFlow returns the flow currently on edge id (the capacity accumulated
// by its reverse edge).
func (g *MCMF) EdgeFlow(id int) int { return int(g.capa[id^1]) }

// costEps is the relaxation threshold of the shortest-path searches.
// Successive shortest paths can leave hair-thin "negative cycles" in the
// residual graph purely from floating-point cancellation (costs combine
// user potentials with large constraint boosts); relaxations below this
// threshold are noise and must not loop forever.
const costEps = 1e-7

// Run pushes the maximum flow from s to t at minimum total cost using
// successive shortest paths found with Bellman-Ford (negative edge costs
// are allowed; the input must not contain negative cycles, which holds for
// all reductions in this repo). It returns the total flow and its cost.
func (g *MCMF) Run(s, t int) (int, float64) {
	totalFlow := 0
	totalCost := 0.0
	dist := slicex.Grow(g.dist, g.n)
	inQueue := slicex.Grow(g.inQueue, g.n)
	prevEdge := slicex.Grow(g.prevEdge, g.n)
	g.dist, g.inQueue, g.prevEdge = dist, inQueue, prevEdge
	// inQueue's invariant (queue empty => all false) holds between Run
	// calls except after a budget bailout; clear so reuse starts clean.
	clear(inQueue)
	for {
		// SPFA variant of Bellman-Ford over positive-residual edges. The
		// pop budget is a defensive bound: float noise cannot spin it.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		queue := append(g.queue[:0], int32(s))
		qhead := 0
		inQueue[s] = true
		budget := 50 * (g.n + 1) * (len(g.to) + 1)
		for qhead < len(queue) && budget > 0 {
			budget--
			u := queue[qhead]
			qhead++
			inQueue[u] = false
			for id := g.head[u]; id >= 0; id = g.next[id] {
				if g.capa[id] <= 0 {
					continue
				}
				v := g.to[id]
				nd := dist[u] + g.cost[id]
				if nd < dist[v]-costEps {
					dist[v] = nd
					prevEdge[v] = id
					if !inQueue[v] {
						inQueue[v] = true
						queue = append(queue, v)
					}
				}
			}
		}
		g.queue = queue[:0]
		if math.IsInf(dist[t], 1) {
			return totalFlow, totalCost
		}
		// Bottleneck along the path.
		push := int32(math.MaxInt32)
		for v := int32(t); v != int32(s); {
			id := prevEdge[v]
			if g.capa[id] < push {
				push = g.capa[id]
			}
			v = g.to[id^1]
		}
		for v := int32(t); v != int32(s); {
			id := prevEdge[v]
			g.capa[id] -= push
			g.capa[id^1] += push
			v = g.to[id^1]
		}
		totalFlow += int(push)
		totalCost += float64(push) * dist[t]
	}
}

// residualShortestInto runs Bellman-Ford from src over the residual graph
// (edges with positive remaining capacity) and writes the distance to
// every node (+Inf when unreachable) into dist, of length g.n. This is
// the Fig. 3 primitive for max-marginals.
func (g *MCMF) residualShortestInto(src int, dist []float64) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	// Plain Bellman-Ford: n-1 relaxation rounds with early exit.
	for round := 0; round < g.n-1; round++ {
		changed := false
		for id := 0; id < len(g.to); id++ {
			if g.capa[id] <= 0 {
				continue
			}
			u := g.to[id^1]
			if math.IsInf(dist[u], 1) {
				continue
			}
			v := g.to[id]
			if nd := dist[u] + g.cost[id]; nd < dist[v]-costEps {
				dist[v] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}
