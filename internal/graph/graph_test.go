package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// triangle returns 0→1→2→0 plus 0→2.
func triangle() *Graph {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	return g
}

func TestNewAndAdd(t *testing.T) {
	g := triangle()
	if g.NumVertices != 3 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices, g.NumEdges())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1)
}

func TestValidate(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 99)
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range edge not caught")
	}
	h := New(2)
	h.AddWeightedEdge(0, 1, float32(-1))
	if err := h.Validate(); err == nil {
		t.Fatal("negative weight not caught")
	}
}

func TestDegrees(t *testing.T) {
	g := triangle()
	if got := g.OutDegrees(); !reflect.DeepEqual(got, []int{2, 1, 1}) {
		t.Fatalf("OutDegrees = %v", got)
	}
	if got := g.InDegrees(); !reflect.DeepEqual(got, []int{1, 1, 2}) {
		t.Fatalf("InDegrees = %v", got)
	}
	if got := g.MaxOutDegree(); got != 2 {
		t.Fatalf("MaxOutDegree = %d", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.AddEdge(1, 0)
	if g.NumEdges() != 4 {
		t.Fatal("clone mutation leaked")
	}
}

func TestSortBySrc(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 0)
	g.SortBySrc()
	if g.Edges[0].Src != 1 || g.Edges[0].Dst != 0 || g.Edges[2].Src != 3 {
		t.Fatalf("SortBySrc: %v", g.Edges)
	}
}

func TestDedup(t *testing.T) {
	g := New(3)
	g.AddWeightedEdge(0, 1, 5)
	g.AddWeightedEdge(0, 1, 7) // dup, dropped
	g.AddEdge(1, 1)            // self loop, dropped
	g.AddEdge(2, 0)
	g.Dedup()
	if g.NumEdges() != 2 {
		t.Fatalf("edges after Dedup: %v", g.Edges)
	}
	if g.Edges[0].Weight != 5 {
		t.Fatalf("Dedup kept wrong weight: %v", g.Edges[0])
	}
}

func TestSymmetrize(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // already mutual
	g.AddEdge(1, 2)
	s := g.Symmetrize()
	// Expect exactly {0-1, 1-0, 1-2, 2-1}.
	if s.NumEdges() != 4 {
		t.Fatalf("Symmetrize edges = %v", s.Edges)
	}
	deg := s.OutDegrees()
	indeg := s.InDegrees()
	if !reflect.DeepEqual(deg, indeg) {
		t.Fatalf("symmetric graph has out %v != in %v", deg, indeg)
	}
}

func TestBuildOutCSR(t *testing.T) {
	g := triangle()
	c := BuildOutCSR(g)
	if c.Degree(0) != 2 || c.Degree(1) != 1 || c.Degree(2) != 1 {
		t.Fatalf("degrees: %v", c.Offsets)
	}
	n0 := c.Neighbors(0)
	if len(n0) != 2 {
		t.Fatalf("Neighbors(0) = %v", n0)
	}
	seen := map[VertexID]bool{n0[0]: true, n0[1]: true}
	if !seen[1] || !seen[2] {
		t.Fatalf("Neighbors(0) = %v", n0)
	}
	if c.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", c.NumEdges())
	}
}

func TestBuildInCSR(t *testing.T) {
	g := triangle()
	c := BuildInCSR(g)
	if c.Degree(2) != 2 {
		t.Fatalf("in-degree(2) = %d", c.Degree(2))
	}
	n2 := c.Neighbors(2)
	seen := map[VertexID]bool{n2[0]: true, n2[1]: true}
	if !seen[0] || !seen[1] {
		t.Fatalf("in-neighbors(2) = %v", n2)
	}
}

func TestCSRWeightsParallel(t *testing.T) {
	g := New(2)
	g.AddWeightedEdge(0, 1, 3.5)
	c := BuildOutCSR(g)
	if w := c.NeighborWeights(0); len(w) != 1 || w[0] != 3.5 {
		t.Fatalf("weights = %v", w)
	}
}

func TestCSREmptyGraph(t *testing.T) {
	c := BuildOutCSR(New(5))
	for v := VertexID(0); v < 5; v++ {
		if c.Degree(v) != 0 {
			t.Fatalf("degree(%d) = %d", v, c.Degree(v))
		}
	}
}

// Property: CSR preserves the multiset of edges.
func TestQuickCSRPreservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := New(n)
		m := rng.Intn(200)
		for i := 0; i < m; i++ {
			g.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), rng.Float32())
		}
		count := func(edges []Edge) map[Edge]int {
			c := map[Edge]int{}
			for _, e := range edges {
				c[e]++
			}
			return c
		}
		want := count(g.Edges)
		out := BuildOutCSR(g)
		got := map[Edge]int{}
		for v := 0; v < n; v++ {
			ns, ws := out.Neighbors(VertexID(v)), out.NeighborWeights(VertexID(v))
			for i := range ns {
				got[Edge{VertexID(v), ns[i], ws[i]}]++
			}
		}
		if !reflect.DeepEqual(want, got) {
			return false
		}
		in := BuildInCSR(g)
		got2 := map[Edge]int{}
		for v := 0; v < n; v++ {
			ns, ws := in.Neighbors(VertexID(v)), in.NeighborWeights(VertexID(v))
			for i := range ns {
				got2[Edge{ns[i], VertexID(v), ws[i]}]++
			}
		}
		return reflect.DeepEqual(want, got2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Symmetrize is idempotent and degree-balanced.
func TestQuickSymmetrizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < rng.Intn(100); i++ {
			g.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		s1 := g.Symmetrize()
		s2 := s1.Symmetrize()
		if s1.NumEdges() != s2.NumEdges() {
			return false
		}
		return reflect.DeepEqual(s1.OutDegrees(), s1.InDegrees())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
