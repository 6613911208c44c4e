package algos

import (
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// run executes prog on g through the out-of-core engine.
func run(t *testing.T, g *graph.Graph, prog core.Program, p int, model core.Model, cfgMod ...func(*core.Config)) *core.Result {
	t.Helper()
	if prog.NeedsSymmetric() {
		g = g.Symmetrize()
	}
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g, blockstore.Options{P: p, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Model: model, Threads: 4}
	for _, f := range cfgMod {
		f(&cfg)
	}
	res, err := core.New(ds, cfg).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if math.IsInf(w, 1) {
			if !math.IsInf(g, 1) {
				t.Fatalf("%s: value[%d] = %v, want +Inf", name, v, g)
			}
			continue
		}
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: value[%d] = %v, want %v (tol %v)", name, v, g, w, tol)
		}
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	web := gen.Web(600, 4000, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng)
	gen.AssignUniformWeights(web, 1, 5, rng)
	rmat := gen.RMAT(512, 3000, gen.Graph500, rng)
	gen.AssignUniformWeights(rmat, 1, 5, rng)
	er := gen.ErdosRenyi(200, 1000, rng)
	gen.AssignUniformWeights(er, 1, 5, rng)
	tree := gen.RandomTree(300, rng)
	gen.AssignUniformWeights(tree, 1, 5, rng)
	grid := gen.Grid(12, 17)
	gen.AssignUniformWeights(grid, 1, 5, rng)
	return map[string]*graph.Graph{
		"web":  web,
		"rmat": rmat,
		"er":   er,
		"tree": tree,
		"grid": grid,
		"path": gen.Path(40),
		"star": gen.Star(50),
	}
}

func TestPageRankConvergesToOracleFixedPoint(t *testing.T) {
	for name, g := range testGraphs(t) {
		if name == "path" || name == "star" || name == "tree" || name == "grid" {
			continue // graphs with many dangling vertices lose rank mass identically in both, still fine but slow
		}
		t.Run(name, func(t *testing.T) {
			want := OraclePageRank(g, 1e-12, 5000)
			for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
				res := run(t, g, &PageRank{}, 4, model, func(c *core.Config) {
					c.Tolerance = 1e-12
					c.MaxIters = 5000
				})
				if !res.Converged {
					t.Fatalf("%v: PageRank did not converge", model)
				}
				wantClose(t, "PageRank/"+model.String(), res.Values, want, 1e-8)
			}
		})
	}
}

func TestPageRankFiveIterationsAllActive(t *testing.T) {
	// The paper runs 5 iterations with every vertex active (Fig. 1).
	g := testGraphs(t)["rmat"]
	res := run(t, g, &PageRank{}, 4, core.ModelHybrid, func(c *core.Config) { c.MaxIters = 5 })
	if res.NumIterations() != 5 {
		t.Fatalf("iterations = %d", res.NumIterations())
	}
	for _, it := range res.Iterations {
		if it.ActiveVertices != g.NumVertices {
			t.Fatalf("iter %d: %d active, want all %d", it.Iter, it.ActiveVertices, g.NumVertices)
		}
		if it.Model != core.ModelCOP {
			t.Fatalf("iter %d: model %v, want COP for dense frontier", it.Iter, it.Model)
		}
	}
}

func TestPageRankDeltaMatchesPageRank(t *testing.T) {
	for _, name := range []string{"rmat", "er", "web"} {
		g := testGraphs(t)[name]
		t.Run(name, func(t *testing.T) {
			want := OraclePageRank(g, 1e-13, 10000)
			n := float64(g.NumVertices)
			for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
				res := run(t, g, &PageRankDelta{Epsilon: 1e-12}, 4, model, func(c *core.Config) {
					c.MaxIters = 10000
				})
				if !res.Converged {
					t.Fatalf("%v: PageRank-Delta did not converge", model)
				}
				// PageRank-Delta values are unnormalized (fixed point
				// r = (1-d) + d·Σ …); divide by n to compare.
				got := make([]float64, len(res.Values))
				for v := range got {
					got[v] = res.Values[v] / n
				}
				wantClose(t, "PRDelta/"+model.String(), got, want, 1e-7)
			}
		})
	}
}

func TestPageRankDeltaFrontierShrinks(t *testing.T) {
	g := testGraphs(t)["rmat"]
	res := run(t, g, &PageRankDelta{Epsilon: 1e-4}, 4, core.ModelROP, func(c *core.Config) {
		c.MaxIters = 200
	})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	first := res.Iterations[0].ActiveVertices
	last := res.Iterations[len(res.Iterations)-1].ActiveVertices
	if first != g.NumVertices {
		t.Fatalf("first frontier %d, want all", first)
	}
	if last >= first {
		t.Fatalf("frontier did not shrink: first %d last %d", first, last)
	}
}

func TestBFSUnreachableStaysInf(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1) // 2, 3 unreachable
	for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
		res := run(t, g, BFS{Source: 0}, 2, model)
		if !math.IsInf(res.Values[2], 1) || !math.IsInf(res.Values[3], 1) {
			t.Fatalf("%v: unreachable vertices got %v", model, res.Values)
		}
	}
}

func TestSSSPWeightedShorterPathWins(t *testing.T) {
	g := diamond()
	for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
		res := run(t, g, SSSP{Source: 0}, 2, model)
		if res.Values[3] != 5 {
			t.Fatalf("%v: dist[3] = %v, want 5 (via weighted path)", model, res.Values[3])
		}
	}
}

func TestWCCSingleVertexComponents(t *testing.T) {
	g := graph.New(5) // no edges at all
	res := run(t, g, WCC{}, 2, core.ModelCOP)
	for v := 0; v < 5; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("label[%d] = %v", v, res.Values[v])
		}
	}
}

func TestProgramMetadata(t *testing.T) {
	progs := []core.Program{BFS{}, SSSP{}, WCC{}, &PageRank{}, &PageRankDelta{}}
	names := map[string]bool{}
	for _, p := range progs {
		if p.Name() == "" {
			t.Fatal("empty name")
		}
		if names[p.Name()] {
			t.Fatalf("duplicate name %s", p.Name())
		}
		names[p.Name()] = true
	}
	if !(WCC{}).NeedsSymmetric() {
		t.Fatal("WCC must require symmetric input")
	}
	if (BFS{}).NeedsSymmetric() || (&PageRank{}).NeedsSymmetric() {
		t.Fatal("BFS/PageRank must not require symmetric input")
	}
	if (BFS{}).Kind() != core.Monotone || (&PageRank{}).Kind() != core.Additive || (&PageRankDelta{}).Kind() != core.Incremental {
		t.Fatal("kinds wrong")
	}
}
