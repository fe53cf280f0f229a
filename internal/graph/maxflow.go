package graph

// FlowGraph is a max-flow network with float64 capacities, solved with
// Dinic's algorithm. It backs the α-expansion graph cuts, where capacities
// come from real-valued potentials. Flow state persists across MaxFlow
// calls, so capacities may be raised and MaxFlow re-run to push only the
// additional flow — exactly what the constrained-cut loop of Fig. 4 needs.
type FlowGraph struct {
	n    int
	to   []int32
	capa []float64
	adj  [][]int32
	// scratch
	level []int32
	iter  []int32
}

const flowEps = 1e-10

// NewFlowGraph returns an empty flow network on n nodes.
func NewFlowGraph(n int) *FlowGraph {
	return &FlowGraph{n: n, adj: make([][]int32, n)}
}

// N returns the node count.
func (g *FlowGraph) N() int { return g.n }

// AddEdge adds the directed edge u→v with the given capacity (and a
// zero-capacity reverse edge), returning its edge id.
func (g *FlowGraph) AddEdge(u, v int, capacity float64) int {
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.capa = append(g.capa, capacity, 0)
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id+1))
	return id
}

// RaiseCap increases the remaining capacity of edge id by delta.
func (g *FlowGraph) RaiseCap(id int, delta float64) { g.capa[id] += delta }

// Clone deep-copies the network including current flow state.
func (g *FlowGraph) Clone() *FlowGraph {
	c := &FlowGraph{n: g.n}
	c.to = append([]int32(nil), g.to...)
	c.capa = append([]float64(nil), g.capa...)
	c.adj = make([][]int32, g.n)
	for i := range g.adj {
		c.adj[i] = append([]int32(nil), g.adj[i]...)
	}
	return c
}

func (g *FlowGraph) bfs(s, t int) bool {
	if g.level == nil {
		g.level = make([]int32, g.n)
	}
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(s))
	g.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[u] {
			v := g.to[id]
			if g.capa[id] > flowEps && g.level[v] < 0 {
				g.level[v] = g.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *FlowGraph) dfs(u, t int32, f float64) float64 {
	if u == t {
		return f
	}
	for ; g.iter[u] < int32(len(g.adj[u])); g.iter[u]++ {
		id := g.adj[u][g.iter[u]]
		v := g.to[id]
		if g.capa[id] <= flowEps || g.level[v] != g.level[u]+1 {
			continue
		}
		d := f
		if g.capa[id] < d {
			d = g.capa[id]
		}
		if got := g.dfs(v, t, d); got > flowEps {
			g.capa[id] -= got
			g.capa[id^1] += got
			return got
		}
	}
	return 0
}

// MaxFlow pushes as much additional flow as possible from s to t and
// returns the amount pushed in this call.
func (g *FlowGraph) MaxFlow(s, t int) float64 {
	var flow float64
	if g.iter == nil {
		g.iter = make([]int32, g.n)
	}
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(int32(s), int32(t), Inf)
			if f <= flowEps {
				break
			}
			flow += f
		}
	}
	return flow
}

// SSide returns, after MaxFlow, the set of nodes reachable from s in the
// residual graph — the s side of a minimum cut. The complement is the
// t side.
func (g *FlowGraph) SSide(s int) []bool {
	side := make([]bool, g.n)
	queue := []int32{int32(s)}
	side[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[u] {
			v := g.to[id]
			if g.capa[id] > flowEps && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
