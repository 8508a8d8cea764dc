// Package maxflow implements the Edmonds-Karp maximum-flow algorithm and
// the maximum-flow-with-lower-bounds extension the Perseus optimizer uses
// to find minimum cuts on the Capacity DAG (paper §4.3, Appendix E.2,
// Algorithm 3). Capacities are float64 energy values (joules); edges whose
// computation cannot change speed carry effectively infinite capacity.
// Edmonds-Karp, the paper's choice, is the package's only solver; a
// level-graph alternative measured no faster on these graphs.
package maxflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no flow can satisfy the lower bounds.
var ErrInfeasible = errors.New("maxflow: no feasible flow satisfies the lower bounds")

const eps = 1e-9

// Graph is a flow network over nodes 0..n-1.
type Graph struct {
	n    int
	to   []int32
	cap  []float64
	head [][]int32 // per-node incident edge ids (both directions)
	flow []float64
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	return &Graph{n: n, head: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity and returns its
// edge id. A reverse edge with zero capacity is added implicitly.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge %d->%d out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on %d->%d", capacity, u, v))
	}
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.flow = append(g.flow, 0, 0)
	g.head[u] = append(g.head[u], int32(id))
	g.head[v] = append(g.head[v], int32(id+1))
	return id
}

// residual returns the residual capacity of edge id.
func (g *Graph) residual(id int32) float64 { return g.cap[id] - g.flow[id] }

// Flow returns the current flow on the edge with the given id.
func (g *Graph) Flow(id int) float64 { return g.flow[id] }

// MaxFlow pushes the maximum flow from s to t using Edmonds-Karp (BFS
// augmenting paths, Edmonds & Karp 1972) and returns the flow value.
// It may be called once per graph.
func (g *Graph) MaxFlow(s, t int) float64 {
	var total float64
	prev := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	for {
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = -2
		queue = append(queue[:0], int32(s))
		found := false
	bfs:
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, id := range g.head[u] {
				v := g.to[id]
				if prev[v] == -1 && g.residual(id) > eps {
					prev[v] = id
					if int(v) == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return total
		}
		// Find the bottleneck along the path.
		bottleneck := math.Inf(1)
		for v := int32(t); v != int32(s); {
			id := prev[v]
			if r := g.residual(id); r < bottleneck {
				bottleneck = r
			}
			v = g.to[id^1]
		}
		for v := int32(t); v != int32(s); {
			id := prev[v]
			g.flow[id] += bottleneck
			g.flow[id^1] -= bottleneck
			v = g.to[id^1]
		}
		total += bottleneck
	}
}

// MinCutSide returns, after MaxFlow, the set of nodes reachable from s in
// the residual graph: the S side of a minimum s-t cut.
func (g *Graph) MinCutSide(s int) []bool {
	side := make([]bool, g.n)
	side[s] = true
	queue := make([]int32, 1, g.n)
	queue[0] = int32(s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.head[u] {
			v := g.to[id]
			if !side[v] && g.residual(id) > eps {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

// BoundedEdge is a directed edge with a flow lower and upper bound.
// Upper may be math.Inf(1) for edges that must never be cut.
type BoundedEdge struct {
	From, To     int
	Lower, Upper float64
}

// CutResult describes a minimum s-t cut of a network with lower bounds.
type CutResult struct {
	// SSide[v] reports whether node v is on the source side of the cut.
	SSide []bool

	// Value is the cut capacity Σ_{S→T} upper − Σ_{T→S} lower. Infinite
	// when every cut crosses an uncuttable edge.
	Value float64

	// Flow holds the feasible maximum flow per input edge.
	Flow []float64
}

// MinCutWithBounds computes a minimum s-t cut of a DAG whose edges carry
// flow lower bounds, following paper Algorithm 3: a super source/sink
// construction reduces the problem to two Edmonds-Karp max-flow runs,
// after which the residual reachability from s yields the cut. The
// Max-Flow Min-Cut theorem holds with non-zero lower bounds (Ford &
// Fulkerson, ch. 1 §9).
func MinCutWithBounds(n int, edges []BoundedEdge, s, t int) (*CutResult, error) {
	if s == t {
		return nil, fmt.Errorf("maxflow: source equals sink (%d)", s)
	}
	// Effectively-infinite capacity: beyond the sum of all finite
	// capacities, so it is never part of a finite cut. Computed per call
	// to preserve float64 precision.
	var sumFinite float64
	for _, e := range edges {
		if e.Lower < -eps {
			return nil, fmt.Errorf("maxflow: negative lower bound on %d->%d", e.From, e.To)
		}
		if !math.IsInf(e.Upper, 1) {
			if e.Upper < e.Lower-eps {
				return nil, fmt.Errorf("maxflow: upper %v < lower %v on %d->%d", e.Upper, e.Lower, e.From, e.To)
			}
			sumFinite += e.Upper
		}
		sumFinite += e.Lower
	}
	big := 2*sumFinite + 1e6

	upper := func(e BoundedEdge) float64 {
		if math.IsInf(e.Upper, 1) {
			return big
		}
		return e.Upper
	}

	// Step 1: G' with super source/sink. Nodes: 0..n-1, s'=n, t'=n+1.
	sp, tp := n, n+1
	gp := New(n + 2)
	ids := make([]int, len(edges))
	inLower := make([]float64, n)
	outLower := make([]float64, n)
	for i, e := range edges {
		ids[i] = gp.AddEdge(e.From, e.To, upper(e)-e.Lower)
		inLower[e.To] += e.Lower
		outLower[e.From] += e.Lower
	}
	var demand float64
	for v := 0; v < n; v++ {
		if inLower[v] > 0 {
			gp.AddEdge(sp, v, inLower[v])
			demand += inLower[v]
		}
		if outLower[v] > 0 {
			gp.AddEdge(v, tp, outLower[v])
		}
	}
	tsID := gp.AddEdge(t, s, big)

	// Step 2: saturate the super edges; otherwise no feasible flow.
	got := gp.MaxFlow(sp, tp)
	if got < demand-1e-6*(1+demand) {
		return nil, fmt.Errorf("%w: satisfied %v of %v", ErrInfeasible, got, demand)
	}

	// Steps 3-4: recover f on G, then continue augmenting s→t on the
	// residual. Rather than rebuilding, reuse gp: neutralize the super
	// edges and the t→s back edge, then run max flow from s to t. The
	// flows already on real edges stay; residual capacities of real
	// edges are already u−l−f' forward and f' backward, and the backward
	// residual correctly allows reducing flow down to the lower bound.
	gp.cap[tsID] = gp.flow[tsID] // freeze circulation edge
	// Freeze every super edge (both s' and t' incident) at its saturated
	// flow so no augmenting path can route through them.
	for _, id := range gp.head[sp] {
		e := id &^ 1
		gp.cap[e] = gp.flow[e]
	}
	for _, id := range gp.head[tp] {
		e := id &^ 1
		gp.cap[e] = gp.flow[e]
	}
	gp.MaxFlow(s, t)

	side := gp.MinCutSide(s)
	res := &CutResult{SSide: side[:n], Flow: make([]float64, len(edges))}
	for i := range edges {
		res.Flow[i] = gp.flow[ids[i]] + edges[i].Lower
	}
	// Cut value from the definition, detecting "infinite" cuts.
	var val float64
	infinite := false
	for _, e := range edges {
		switch {
		case res.SSide[e.From] && !sideAt(res.SSide, e.To):
			if math.IsInf(e.Upper, 1) {
				infinite = true
			}
			val += upper(e)
		case !res.SSide[e.From] && sideAt(res.SSide, e.To):
			val -= e.Lower
		}
	}
	if infinite || val >= big/2 {
		res.Value = math.Inf(1)
	} else {
		res.Value = val
	}
	return res, nil
}

func sideAt(side []bool, v int) bool { return side[v] }
