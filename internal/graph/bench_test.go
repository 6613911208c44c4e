package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	g.Edges = make([]Edge, m)
	for i := range g.Edges {
		g.Edges[i] = Edge{Src: VertexID(rng.Intn(n)), Dst: VertexID(rng.Intn(n)), Weight: 1}
	}
	return g
}

func BenchmarkBuildOutCSR(b *testing.B) {
	g := benchGraph(b, 1<<16, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOutCSR(g)
	}
}

func BenchmarkSymmetrize(b *testing.B) {
	g := benchGraph(b, 1<<14, 1<<18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Symmetrize()
	}
}
