package algos

import (
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/core"
	"husgraph/internal/graph"
)

// This file holds algorithms beyond the paper's four benchmarks,
// demonstrating that the engine's program model covers the wider
// vertex-centric repertoire (peeling, personalized ranking, linear
// algebra).

// KCore marks the k-core of an undirected graph: the maximal subgraph in
// which every vertex has degree ≥ K. It runs the standard peeling
// iteration — vertices below the threshold are removed and notify their
// neighbors, whose effective degrees drop, possibly removing them next —
// which starts dense (all initially-light vertices) and drains to a sparse
// tail, exercising the hybrid strategy like WCC does.
//
// Final values are the remaining effective degrees; v is in the k-core iff
// Values[v] >= K. Requires a symmetric edge set.
type KCore struct {
	K int
}

// Name implements core.Program.
func (c KCore) Name() string { return "KCore" }

// Kind implements core.Program.
func (KCore) Kind() core.Kind { return core.Additive }

// NeedsSymmetric implements core.Program.
func (KCore) NeedsSymmetric() bool { return true }

// Init implements core.Program.
func (c KCore) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	f := bitset.NewFrontier(ctx.NumVertices)
	for v := 0; v < ctx.NumVertices; v++ {
		vals[v] = float64(ctx.OutDegrees[v])
		if vals[v] < float64(c.K) {
			f.Add(v) // removed immediately; notifies neighbors in iteration 1
		}
	}
	return vals, f
}

// Message implements core.Program: a removed vertex decrements each
// neighbor's effective degree by one.
func (KCore) Message(_ graph.VertexID, _ float64, _ float32) float64 { return 1 }

// Reduce implements core.Reducer.
func (KCore) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (KCore) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// Apply implements core.Program: subtract this iteration's removals;
// activate (remove) the vertex if it just fell below the threshold.
func (c KCore) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	if acc == 0 {
		return prev, false
	}
	newVal := prev - acc
	k := float64(c.K)
	return newVal, prev >= k && newVal < k
}

// OracleKCore returns the final effective degrees of peeling at threshold
// k (serial reference).
func OracleKCore(g *graph.Graph, k int) []float64 {
	csr := graph.BuildOutCSR(g)
	deg := make([]float64, g.NumVertices)
	removed := make([]bool, g.NumVertices)
	var queue []graph.VertexID
	for v := 0; v < g.NumVertices; v++ {
		deg[v] = float64(csr.Degree(graph.VertexID(v)))
		if deg[v] < float64(k) {
			removed[v] = true
			queue = append(queue, graph.VertexID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range csr.Neighbors(v) {
			deg[u]--
			if !removed[u] && deg[u] < float64(k) {
				removed[u] = true
				queue = append(queue, u)
			}
		}
	}
	return deg
}

// InCore reports which vertices the KCore result keeps.
func InCore(values []float64, k int) []bool {
	out := make([]bool, len(values))
	for v, d := range values {
		out[v] = d >= float64(k)
	}
	return out
}

// PPR computes personalized PageRank: random walks restart at Source with
// probability 1-d, giving the stationary distribution
// p = (1-d)·e_src + d·Mᵀp. It uses the same residual-propagation scheme as
// PageRank-Delta, so the frontier starts as just the source and grows and
// shrinks with the residual mass — a natural fit for the hybrid strategy.
type PPR struct {
	Source graph.VertexID
	// Epsilon is the residual threshold below which a vertex deactivates
	// (0 defaults to 1e-10).
	Epsilon float64

	ctx   *core.Context
	delta []float64
}

// Name implements core.Program.
func (*PPR) Name() string { return "PPR" }

// Kind implements core.Program.
func (*PPR) Kind() core.Kind { return core.Incremental }

// NeedsSymmetric implements core.Program.
func (*PPR) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (p *PPR) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	p.ctx = ctx
	if p.Epsilon == 0 {
		p.Epsilon = 1e-10
	}
	vals := make([]float64, ctx.NumVertices)
	p.delta = make([]float64, ctx.NumVertices)
	vals[p.Source] = 1 - PageRankDamping
	p.delta[p.Source] = 1 - PageRankDamping
	f := bitset.NewFrontier(ctx.NumVertices)
	f.Add(int(p.Source))
	return vals, f
}

// Message implements core.Program.
func (p *PPR) Message(src graph.VertexID, _ float64, _ float32) float64 {
	return PageRankDamping * p.delta[src] / float64(p.ctx.OutDegrees[src])
}

// Reduce implements core.Reducer.
func (*PPR) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (*PPR) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// Apply implements core.Program.
func (p *PPR) Apply(v graph.VertexID, prev, acc float64) (float64, bool) {
	p.delta[v] = acc
	if math.Abs(acc) <= p.Epsilon {
		p.delta[v] = 0
		return prev + acc, false
	}
	return prev + acc, true
}

// OraclePPR returns personalized PageRank values for src via dense power
// iteration until the L∞ change falls below tol.
func OraclePPR(g *graph.Graph, src graph.VertexID, tol float64, maxIters int) []float64 {
	n := g.NumVertices
	in := graph.BuildInCSR(g)
	outDeg := g.OutDegrees()
	r := make([]float64, n)
	next := make([]float64, n)
	r[src] = 1 - PageRankDamping
	for iter := 0; iter < maxIters; iter++ {
		maxDelta := 0.0
		for v := 0; v < n; v++ {
			acc := 0.0
			for _, u := range in.Neighbors(graph.VertexID(v)) {
				acc += r[u] / float64(outDeg[u])
			}
			next[v] = PageRankDamping * acc
			if graph.VertexID(v) == src {
				next[v] += 1 - PageRankDamping
			}
			if d := math.Abs(next[v] - r[v]); d > maxDelta {
				maxDelta = d
			}
		}
		r, next = next, r
		if maxDelta < tol {
			break
		}
	}
	return r
}

// SpMV computes one sparse matrix–vector product y = Aᵀx over the weighted
// adjacency matrix: y(v) = Σ_{u→v} w(u,v)·x(u). Run it with MaxIters = 1;
// it demonstrates the engine's use for linear-algebra kernels beyond graph
// traversals. The result leaves zero rows at vertices without in-edges.
type SpMV struct {
	// X is the input vector (length |V|).
	X []float64
}

// Name implements core.Program.
func (SpMV) Name() string { return "SpMV" }

// Kind implements core.Program. Incremental (deferred synchronization):
// the product must be computed entirely from the input vector, so the
// engine's eager Gauss–Seidel column swap for Additive programs would be
// incorrect here.
func (SpMV) Kind() core.Kind { return core.Incremental }

// NeedsSymmetric implements core.Program.
func (SpMV) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (m SpMV) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	if len(m.X) != ctx.NumVertices {
		panic("algos: SpMV input vector length mismatch")
	}
	vals := make([]float64, len(m.X))
	copy(vals, m.X)
	return vals, bitset.FullFrontier(ctx.NumVertices)
}

// Message implements core.Program.
func (SpMV) Message(_ graph.VertexID, srcVal float64, weight float32) float64 {
	return srcVal * float64(weight)
}

// Reduce implements core.Reducer.
func (SpMV) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (SpMV) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// Apply implements core.Program: the product replaces the value; one
// iteration suffices, so nothing reactivates.
func (SpMV) Apply(_ graph.VertexID, _, acc float64) (float64, bool) {
	return acc, false
}

// OracleSpMV returns Aᵀx computed serially.
func OracleSpMV(g *graph.Graph, x []float64) []float64 {
	y := make([]float64, g.NumVertices)
	for _, e := range g.Edges {
		y[e.Dst] += float64(e.Weight) * x[e.Src]
	}
	return y
}

// SaveState implements core.StatefulProgram.
func (p *PPR) SaveState() []byte { return core.SaveStateFloats(p.delta) }

// LoadState implements core.StatefulProgram.
func (p *PPR) LoadState(data []byte) error { return core.LoadStateFloats(data, p.delta) }

var (
	_ core.Program         = KCore{}
	_ core.StatefulProgram = (*PPR)(nil)
	_ core.Program         = SpMV{}
)
