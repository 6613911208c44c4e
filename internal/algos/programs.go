// Package algos provides the vertex programs evaluated in the paper —
// BFS, WCC, SSSP, PageRank (§4.1) and the PageRank-Delta variant its
// footnote 1 mentions — plus serial in-memory reference implementations
// used as test oracles.
package algos

import (
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/core"
	"husgraph/internal/graph"
)

// Unreached marks vertices not yet reached by a traversal program.
var Unreached = math.Inf(1)

// BFS computes hop distances from a source. Vertex values are levels;
// unreached vertices end at +Inf.
type BFS struct {
	Source graph.VertexID
}

// Name implements core.Program.
func (BFS) Name() string { return "BFS" }

// Kind implements core.Program.
func (BFS) Kind() core.Kind { return core.Monotone }

// NeedsSymmetric implements core.Program.
func (BFS) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (b BFS) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = Unreached
	}
	vals[b.Source] = 0
	f := bitset.NewFrontier(ctx.NumVertices)
	f.Add(int(b.Source))
	return vals, f
}

// Message implements core.Program.
func (BFS) Message(_ graph.VertexID, srcVal float64, _ float32) float64 {
	return srcVal + 1
}

// Reduce implements core.Reducer.
func (BFS) Reduce() core.ReduceOp { return core.ReduceMin }

// Combine implements core.Program.
func (BFS) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}

// Apply implements core.Program.
func (BFS) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

// SSSP computes single-source shortest paths over non-negative edge
// weights (Bellman–Ford style label correcting).
type SSSP struct {
	Source graph.VertexID
}

// Name implements core.Program.
func (SSSP) Name() string { return "SSSP" }

// Kind implements core.Program.
func (SSSP) Kind() core.Kind { return core.Monotone }

// NeedsSymmetric implements core.Program.
func (SSSP) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (s SSSP) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = Unreached
	}
	vals[s.Source] = 0
	f := bitset.NewFrontier(ctx.NumVertices)
	f.Add(int(s.Source))
	return vals, f
}

// Message implements core.Program.
func (SSSP) Message(_ graph.VertexID, srcVal float64, weight float32) float64 {
	return srcVal + float64(weight)
}

// Reduce implements core.Reducer.
func (SSSP) Reduce() core.ReduceOp { return core.ReduceMin }

// Combine implements core.Program.
func (SSSP) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}

// Apply implements core.Program.
func (SSSP) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

// WCC computes weakly connected components by min-label propagation.
// Values converge to the smallest vertex ID in each component. It requires
// a symmetric edge set (the harness symmetrizes directed inputs, per the
// paper's §3.1 treatment of undirected graphs).
type WCC struct{}

// Name implements core.Program.
func (WCC) Name() string { return "WCC" }

// Kind implements core.Program.
func (WCC) Kind() core.Kind { return core.Monotone }

// NeedsSymmetric implements core.Program.
func (WCC) NeedsSymmetric() bool { return true }

// Init implements core.Program.
func (WCC) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = float64(i)
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}

// Message implements core.Program.
func (WCC) Message(_ graph.VertexID, srcVal float64, _ float32) float64 {
	return srcVal
}

// Reduce implements core.Reducer.
func (WCC) Reduce() core.ReduceOp { return core.ReduceMin }

// Combine implements core.Program.
func (WCC) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}

// Apply implements core.Program.
func (WCC) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

// PageRankDamping is the standard damping factor.
const PageRankDamping = 0.85

// PageRank is the standard power-iteration formulation: every vertex is
// active every iteration (paper Fig. 1), recomputing
// r(v) = (1-d)/n + d·Σ_{u→v} r(u)/outdeg(u). Dangling vertices' mass is
// dropped, as in GraphChi's and GridGraph's example programs.
type PageRank struct {
	ctx *core.Context
}

// Name implements core.Program.
func (*PageRank) Name() string { return "PageRank" }

// Kind implements core.Program.
func (*PageRank) Kind() core.Kind { return core.Additive }

// NeedsSymmetric implements core.Program.
func (*PageRank) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (p *PageRank) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	p.ctx = ctx
	vals := make([]float64, ctx.NumVertices)
	init := 1 / float64(ctx.NumVertices)
	for i := range vals {
		vals[i] = init
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}

// Message implements core.Program.
func (p *PageRank) Message(src graph.VertexID, srcVal float64, _ float32) float64 {
	return srcVal / float64(p.ctx.OutDegrees[src])
}

// Reduce implements core.Reducer.
func (*PageRank) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (*PageRank) Combine(acc, msg float64) (float64, bool) {
	return acc + msg, true
}

// Apply implements core.Program.
func (p *PageRank) Apply(_ graph.VertexID, _, acc float64) (float64, bool) {
	n := float64(p.ctx.NumVertices)
	return (1-PageRankDamping)/n + PageRankDamping*acc, true
}

// PageRankDelta is the incremental PageRank the paper's footnote 1
// describes: "vertices are active in an iteration only if they have
// accumulated enough change in their PR value". It propagates rank deltas
// and deactivates vertices whose residual falls below Epsilon, so the
// active set shrinks over time — exercising the hybrid strategy on an
// otherwise all-active algorithm. Values are unnormalized ranks with fixed
// point r = (1-d) + d·Σ r(u)/outdeg(u); divide by |V| to compare with
// PageRank.
type PageRankDelta struct {
	// Epsilon is the residual threshold below which a vertex deactivates.
	// Zero defaults to 1e-9.
	Epsilon float64

	ctx   *core.Context
	delta []float64
}

// Name implements core.Program.
func (*PageRankDelta) Name() string { return "PageRank-Delta" }

// Kind implements core.Program.
func (*PageRankDelta) Kind() core.Kind { return core.Incremental }

// NeedsSymmetric implements core.Program.
func (*PageRankDelta) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (p *PageRankDelta) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	p.ctx = ctx
	if p.Epsilon == 0 {
		p.Epsilon = 1e-9
	}
	vals := make([]float64, ctx.NumVertices)
	p.delta = make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = 1 - PageRankDamping
		p.delta[i] = 1 - PageRankDamping
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}

// Message implements core.Program. The pushed quantity is the damped share
// of the source's residual, independent of its current value.
func (p *PageRankDelta) Message(src graph.VertexID, _ float64, _ float32) float64 {
	return PageRankDamping * p.delta[src] / float64(p.ctx.OutDegrees[src])
}

// Reduce implements core.Reducer.
func (*PageRankDelta) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (*PageRankDelta) Combine(acc, msg float64) (float64, bool) {
	return acc + msg, true
}

// Apply implements core.Program.
func (p *PageRankDelta) Apply(v graph.VertexID, prev, acc float64) (float64, bool) {
	p.delta[v] = acc
	if math.Abs(acc) <= p.Epsilon {
		p.delta[v] = 0
		return prev + acc, false
	}
	return prev + acc, true
}

// SaveState implements core.StatefulProgram: the residuals are persisted
// inside engine checkpoints.
func (p *PageRankDelta) SaveState() []byte { return core.SaveStateFloats(p.delta) }

// LoadState implements core.StatefulProgram.
func (p *PageRankDelta) LoadState(data []byte) error { return core.LoadStateFloats(data, p.delta) }

// Compile-time interface checks.
var (
	_ core.StatefulProgram = (*PageRankDelta)(nil)
	_ core.Program         = BFS{}
	_ core.Program         = SSSP{}
	_ core.Program         = WCC{}
	_ core.Program         = (*PageRank)(nil)
	_ core.Program         = (*PageRankDelta)(nil)
)
