package algos

import (
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
)

func TestKCoreOracleTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus a pendant 3 attached to 0 (symmetrized). For
	// k=2 the pendant is peeled and the triangle stays.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	sym := g.Symmetrize()
	deg := OracleKCore(sym, 2)
	in := InCore(deg, 2)
	if !in[0] || !in[1] || !in[2] || in[3] {
		t.Fatalf("2-core membership: %v (deg %v)", in, deg)
	}
}

func TestKCoreCascade(t *testing.T) {
	// A path: every vertex has degree <= 2 symmetrized; k=2 keeps only...
	// nothing once the ends peel away and the removal cascades.
	sym := gen.Path(10).Symmetrize()
	in := InCore(OracleKCore(sym, 2), 2)
	for v, ok := range in {
		if ok {
			t.Fatalf("vertex %d survived 2-core of a path", v)
		}
	}
}

func TestKCoreFrontierDrains(t *testing.T) {
	g := gen.RMAT(512, 3000, gen.Graph500, rand.New(rand.NewSource(5)))
	res := run(t, g, KCore{K: 4}, 4, core.ModelHybrid)
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.NumIterations() < 2 {
		t.Fatalf("peeling should cascade, got %d iterations", res.NumIterations())
	}
}

func TestPPRMatchesOracle(t *testing.T) {
	for _, name := range []string{"rmat", "er"} {
		g := testGraphs(t)[name]
		t.Run(name, func(t *testing.T) {
			src := gen.BFSSource(g)
			want := OraclePPR(g, src, 1e-14, 10000)
			for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
				res := run(t, g, &PPR{Source: src, Epsilon: 1e-13}, 4, model, func(c *core.Config) {
					c.MaxIters = 20000
				})
				if !res.Converged {
					t.Fatalf("%v: not converged", model)
				}
				for v := range want {
					if math.Abs(res.Values[v]-want[v]) > 1e-8 {
						t.Fatalf("%v: ppr[%d] = %v, want %v", model, v, res.Values[v], want[v])
					}
				}
			}
		})
	}
}

func TestPPRMassConcentratesNearSource(t *testing.T) {
	// On a directed path, PPR from the head decays geometrically.
	g := gen.Path(20)
	res := run(t, g, &PPR{Source: 0, Epsilon: 1e-15}, 2, core.ModelHybrid, func(c *core.Config) {
		c.MaxIters = 1000
	})
	for v := 1; v < 20; v++ {
		if res.Values[v] >= res.Values[v-1] {
			t.Fatalf("ppr[%d]=%v not below ppr[%d]=%v", v, res.Values[v], v-1, res.Values[v-1])
		}
	}
	want := (1 - PageRankDamping) * PageRankDamping
	if math.Abs(res.Values[1]-want) > 1e-9 {
		t.Fatalf("ppr[1] = %v, want %v", res.Values[1], want)
	}
}

func TestSpMVMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.RMAT(128, 1500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 0.5, 2, rng)
	x := make([]float64, g.NumVertices)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := OracleSpMV(g, x)
	for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
		res := run(t, g, SpMV{X: x}, 4, model, func(c *core.Config) { c.MaxIters = 1 })
		for v := range want {
			if math.Abs(res.Values[v]-want[v]) > 1e-9 {
				t.Fatalf("%v: y[%d] = %v, want %v", model, v, res.Values[v], want[v])
			}
		}
	}
}

func TestSpMVConvergesAfterOneIteration(t *testing.T) {
	g := gen.Cycle(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i)
	}
	res := run(t, g, SpMV{X: x}, 2, core.ModelCOP)
	if res.NumIterations() != 1 || !res.Converged {
		t.Fatalf("iters=%d converged=%v", res.NumIterations(), res.Converged)
	}
}

func TestSpMVRejectsBadVector(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	run(t, gen.Cycle(5), SpMV{X: make([]float64, 3)}, 2, core.ModelCOP)
}

func TestExtraProgramMetadata(t *testing.T) {
	if (KCore{K: 2}).Kind() != core.Additive || !(KCore{}).NeedsSymmetric() {
		t.Fatal("KCore metadata")
	}
	if (&PPR{}).Kind() != core.Incremental || (&PPR{}).NeedsSymmetric() {
		t.Fatal("PPR metadata")
	}
	if (SpMV{}).Kind() != core.Incremental || (SpMV{}).NeedsSymmetric() {
		t.Fatal("SpMV metadata")
	}
}
