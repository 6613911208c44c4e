package algos

import (
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/bucket"
	"husgraph/internal/core"
	"husgraph/internal/graph"
)

// This file holds the bucketed (priority-ordered) programs: delta-stepping
// SSSP and exact coreness decomposition by bucket peeling, both driven
// bucket-by-bucket through core.PriorityProgram instead of
// iterate-to-fixpoint.

// DeltaSSSP computes single-source shortest paths over non-negative edge
// weights by delta-stepping: tentative distances are bucketed at width
// Delta and buckets are settled in increasing order, so distance bucket k
// is fully relaxed (including same-bucket reinsertions) before bucket k+1
// opens — asymptotically less wasted relaxation than Bellman–Ford rounds.
// The relaxation itself is SSSP's; only the frontier schedule changes, so
// the final values are identical.
type DeltaSSSP struct {
	Source graph.VertexID
	// Delta is the bucket width in distance units (one not > 0, NaN
	// included, defaults to 1).
	Delta float64
}

// Name implements core.Program.
func (DeltaSSSP) Name() string { return "SSSP-Delta" }

// Kind implements core.Program.
func (DeltaSSSP) Kind() core.Kind { return core.Monotone }

// NeedsSymmetric implements core.Program.
func (DeltaSSSP) NeedsSymmetric() bool { return false }

// Init implements core.Program.
func (s DeltaSSSP) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
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
func (DeltaSSSP) Message(_ graph.VertexID, srcVal float64, weight float32) float64 {
	return srcVal + float64(weight)
}

// Reduce implements core.Reducer.
func (DeltaSSSP) Reduce() core.ReduceOp { return core.ReduceMin }

// Combine implements core.Program.
func (DeltaSSSP) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}

// Apply implements core.Program.
func (DeltaSSSP) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

func (s DeltaSSSP) width() float64 {
	if !(s.Delta > 0) {
		return 1
	}
	return s.Delta
}

// Priority implements core.PriorityProgram: the distance bucket index.
// Activated vertices always carry a finite tentative distance, but an
// unreached value is mapped defensively to the last bucket, and so is any
// quotient int64 cannot hold (converted, it would wrap to the first): the
// index stays monotone in the distance however narrow the width.
func (s DeltaSSSP) Priority(_ graph.VertexID, val float64) int64 {
	if q := val / s.width(); q < math.MaxInt64 {
		return int64(q)
	}
	return math.MaxInt64
}

// PriorityOrder implements core.PriorityProgram: nearest bucket first.
func (DeltaSSSP) PriorityOrder() bucket.Order { return bucket.Increasing }

// EnterBucket implements core.PriorityProgram. Delta-stepping needs no
// per-bucket state: non-negative weights guarantee relaxations from bucket
// k never improve a distance below k·Delta, so the bucket structure's
// monotone clamp is never exercised beyond same-bucket reinsertion.
func (DeltaSSSP) EnterBucket(int64) {}

// OracleBellmanFord returns shortest-path distances from src by classic
// round-based relaxation to fixpoint — an independent reference for the
// delta-stepping schedule (OracleSSSP's Dijkstra is the other).
func OracleBellmanFord(g *graph.Graph, src graph.VertexID) []float64 {
	csr := graph.BuildOutCSR(g)
	dist := make([]float64, g.NumVertices)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	for round := 0; round < g.NumVertices; round++ {
		changed := false
		for v := 0; v < g.NumVertices; v++ {
			if math.IsInf(dist[v], 1) {
				continue
			}
			ns, ws := csr.Neighbors(graph.VertexID(v)), csr.NeighborWeights(graph.VertexID(v))
			for i, u := range ns {
				if nd := dist[v] + float64(ws[i]); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Coreness computes the full coreness decomposition of an undirected graph
// by bucket peeling: vertices are parked at their current effective
// degree, the minimum bucket is peeled each iteration, and neighbors'
// degrees drop with a floor at the current threshold (Julienne's
// max(deg − removed, k) clamp). The final value of every vertex is its
// coreness — the largest k such that it belongs to the k-core — replacing
// fixed-K KCore runs with the whole decomposition in one pass. Requires a
// symmetric edge set.
type Coreness struct {
	// threshold is the priority of the bucket being peeled, written by
	// EnterBucket at the iteration barrier and read by Apply during the
	// iteration (the barrier's happens-before publishes it).
	threshold int64
}

// Name implements core.Program.
func (*Coreness) Name() string { return "Coreness" }

// Kind implements core.Program.
func (*Coreness) Kind() core.Kind { return core.Additive }

// NeedsSymmetric implements core.Program.
func (*Coreness) NeedsSymmetric() bool { return true }

// Init implements core.Program: every vertex starts at its degree; the
// router parks them all and peels from the minimum-degree bucket up.
func (*Coreness) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for v := 0; v < ctx.NumVertices; v++ {
		vals[v] = float64(ctx.OutDegrees[v])
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}

// Message implements core.Program: a peeled vertex decrements each
// neighbor's effective degree by one.
func (*Coreness) Message(_ graph.VertexID, _ float64, _ float32) float64 { return 1 }

// Reduce implements core.Reducer.
func (*Coreness) Reduce() core.ReduceOp { return core.ReduceSum }

// Combine implements core.Program.
func (*Coreness) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// Apply implements core.Program: subtract this iteration's removals with a
// floor at the peel threshold. Vertices at or below the threshold are
// settled — their value is their coreness, frozen for the rest of the run
// (the threshold only rises). Changed vertices re-activate so the router
// re-parks them at their new degree.
func (c *Coreness) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	if acc == 0 {
		return prev, false
	}
	k := float64(c.threshold)
	if prev <= k {
		return prev, false
	}
	nv := prev - acc
	if nv < k {
		nv = k
	}
	return nv, true
}

// Priority implements core.PriorityProgram: the effective degree itself.
func (*Coreness) Priority(_ graph.VertexID, val float64) int64 { return int64(val) }

// PriorityOrder implements core.PriorityProgram: lowest degree first.
func (*Coreness) PriorityOrder() bucket.Order { return bucket.Increasing }

// EnterBucket implements core.PriorityProgram.
func (c *Coreness) EnterBucket(pri int64) { c.threshold = pri }

// OracleCoreness returns every vertex's coreness by serial minimum-degree
// peeling (Batagelj–Zaveršnik with a lazy bucket queue).
func OracleCoreness(g *graph.Graph) []float64 {
	csr := graph.BuildOutCSR(g)
	n := g.NumVertices
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = int(csr.Degree(graph.VertexID(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	out := make([]float64, n)
	for d := 0; d <= maxDeg; d++ {
		for len(buckets[d]) > 0 {
			v := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if removed[v] || deg[v] != d {
				continue // stale entry from an earlier decrement
			}
			removed[v] = true
			out[v] = float64(d)
			for _, u := range csr.Neighbors(graph.VertexID(v)) {
				// Floor at the current peel level: degrees never drop
				// below the coreness being assigned.
				if !removed[u] && deg[u] > d {
					deg[u]--
					buckets[deg[u]] = append(buckets[deg[u]], int(u))
				}
			}
		}
	}
	return out
}

// Compile-time interface checks.
var (
	_ core.PriorityProgram = DeltaSSSP{}
	_ core.PriorityProgram = (*Coreness)(nil)
)
