package algos

import (
	"math/rand"
	"testing"

	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
)

// The prefetch pipeline and block cache must be invisible to results: the
// hybrid engine with concurrent read-ahead workers and a warm cache has to
// reproduce the oracle answers exactly, iteration for iteration. This file
// is the -race battleground for the whole pipeline — hybrid mode exercises
// both the COP Next path and the ROP Take path in one run.

func TestHybridWithPrefetchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	web := gen.Web(600, 4000, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng)
	rmat := gen.RMAT(512, 3000, gen.Graph500, rng)
	pipelined := func(c *core.Config) {
		c.PrefetchDepth = 3
		c.CacheBudgetBytes = 32 << 20
	}
	for name, g := range map[string]*graph.Graph{"web": web, "rmat": rmat} {
		t.Run(name, func(t *testing.T) {
			src := gen.BFSSource(g)
			wantClose(t, "BFS", run(t, g, BFS{Source: src}, 4, core.ModelHybrid, pipelined).Values, OracleBFS(g, src), 0)

			wantClose(t, "WCC", run(t, g, WCC{}, 4, core.ModelHybrid, pipelined).Values, OracleWCC(g), 0)

			res := run(t, g, &PageRank{}, 4, core.ModelHybrid, pipelined, func(c *core.Config) {
				c.Tolerance = 1e-12
				c.MaxIters = 5000
			})
			if !res.Converged {
				t.Fatal("PageRank did not converge")
			}
			wantClose(t, "PageRank", res.Values, OraclePageRank(g, 1e-12, 5000), 1e-8)
			if res.Cache.Hits == 0 {
				t.Fatal("iterative PageRank never hit the block cache")
			}
		})
	}
}

func TestHybridPrefetchMatchesUnpipelinedRun(t *testing.T) {
	// Same engine, same graph, pipeline on vs off: per-vertex values must
	// be bit-identical and the model trajectory unchanged. The predictor
	// prices cached blocks at zero, so the graph is one whose hybrid choices
	// are not closer than the warm cache's discount (seed 11's last
	// iteration is; core's TestWarmCacheMovesHybridChoicesOnlyByPricing
	// pins down how a cache may move such a choice).
	rng := rand.New(rand.NewSource(12))
	g := gen.Web(500, 3500, gen.WebParams{Alpha: 2.1, JumpFrac: 0.08}, rng)
	src := gen.BFSSource(g)
	plain := run(t, g, BFS{Source: src}, 4, core.ModelHybrid)
	piped := run(t, g, BFS{Source: src}, 4, core.ModelHybrid, func(c *core.Config) {
		c.PrefetchDepth = 4
		c.CacheBudgetBytes = 16 << 20
	})
	if plain.NumIterations() != piped.NumIterations() {
		t.Fatalf("iteration counts differ: %d vs %d", plain.NumIterations(), piped.NumIterations())
	}
	for i := range plain.Iterations {
		if plain.Iterations[i].Model != piped.Iterations[i].Model {
			t.Fatalf("iter %d: model %v vs %v", i, plain.Iterations[i].Model, piped.Iterations[i].Model)
		}
	}
	for v := range plain.Values {
		if plain.Values[v] != piped.Values[v] {
			t.Fatalf("value[%d]: %v vs %v", v, plain.Values[v], piped.Values[v])
		}
	}
}
