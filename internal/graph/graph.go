// Package graph defines the in-memory graph representation shared by the
// HUS-Graph engine, its baselines, the generators and the codecs.
//
// Following the paper's model (§3.1), a graph G = (V, E) is a set of
// directed edges; for an edge e = (u, v), e is v's in-edge and u's
// out-edge. Undirected graphs are represented by storing the two opposite
// directed edges. Edges optionally carry a float32 weight (used by SSSP).
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. 32 bits matches the out-of-core systems the
// paper compares against and keeps the on-disk edge record at M = 8 bytes
// (destination + weight) in block format.
type VertexID = uint32

// Edge is a directed, weighted edge.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an in-memory edge list plus vertex count. Vertex IDs are dense
// in [0, NumVertices).
type Graph struct {
	NumVertices int
	Edges       []Edge
}

// New returns an empty graph over n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{NumVertices: n}
}

// AddEdge appends a directed edge with weight 1.
func (g *Graph) AddEdge(src, dst VertexID) {
	g.AddWeightedEdge(src, dst, 1)
}

// AddWeightedEdge appends a directed edge.
func (g *Graph) AddWeightedEdge(src, dst VertexID, w float32) {
	g.Edges = append(g.Edges, Edge{Src: src, Dst: dst, Weight: w})
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Validate checks that all endpoints are within [0, NumVertices) and that
// weights are finite and non-negative.
func (g *Graph) Validate() error {
	n := VertexID(g.NumVertices)
	for i, e := range g.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if !(e.Weight >= 0) { // also catches NaN
			return fmt.Errorf("graph: edge %d (%d->%d) has invalid weight %v", i, e.Src, e.Dst, e.Weight)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	d := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		d[e.Src]++
	}
	return d
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int {
	d := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		d[e.Dst]++
	}
	return d
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{NumVertices: g.NumVertices, Edges: append([]Edge(nil), g.Edges...)}
}

// SortBySrc sorts edges by (src, dst).
func (g *Graph) SortBySrc() {
	slices.SortFunc(g.Edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
}

// Dedup removes duplicate (src, dst) pairs, keeping the first occurrence's
// weight, and removes self-loops. It sorts the edge list by source.
func (g *Graph) Dedup() {
	g.SortBySrc()
	out := g.Edges[:0]
	var last Edge
	have := false
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			continue
		}
		if have && e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
		last, have = e, true
	}
	g.Edges = out
}

// Symmetrize returns a new graph with, for every edge (u,v), both (u,v) and
// (v,u) present exactly once each (self-loops dropped). This is how the
// paper supports undirected graphs (§3.1): "adding two opposite edges for
// each pair of vertices".
func (g *Graph) Symmetrize() *Graph {
	s := New(g.NumVertices)
	s.Edges = make([]Edge, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			continue
		}
		s.Edges = append(s.Edges, e, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	s.Dedup()
	return s
}

// MaxOutDegree returns the largest out-degree, or 0 for an empty graph.
func (g *Graph) MaxOutDegree() int {
	m := 0
	for _, d := range g.OutDegrees() {
		if d > m {
			m = d
		}
	}
	return m
}
