package baseline

import (
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func testGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.RMAT(512, 4000, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	return g
}

// systems builds one of each baseline for prog over g.
func systems(t *testing.T, g *graph.Graph, prog func() core.Program, cfg Config) map[string]System {
	t.Helper()
	out := map[string]System{}
	gc, err := NewGraphChi(g, prog(), 4, storage.NewDevice(storage.HDD), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["GraphChi"] = gc
	gg, err := NewGridGraph(g, prog(), 4, storage.NewDevice(storage.HDD), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["GridGraph"] = gg
	xs, err := NewXStream(g, prog(), storage.NewDevice(storage.HDD), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["X-Stream"] = xs
	return out
}

func TestBaselinesBFSMatchOracle(t *testing.T) {
	g := testGraph(1)
	src := gen.BFSSource(g)
	want := algos.OracleBFS(g, src)
	for name, sys := range systems(t, g, func() core.Program { return algos.BFS{Source: src} }, Config{}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: not converged", name)
		}
		for v := range want {
			if res.Values[v] != want[v] && !(math.IsInf(res.Values[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("%s: dist[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestBaselinesSSSPMatchOracle(t *testing.T) {
	g := testGraph(2)
	src := gen.BFSSource(g)
	want := algos.OracleSSSP(g, src)
	for name, sys := range systems(t, g, func() core.Program { return algos.SSSP{Source: src} }, Config{}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.IsInf(want[v], 1) {
				if !math.IsInf(res.Values[v], 1) {
					t.Fatalf("%s: dist[%d] finite", name, v)
				}
				continue
			}
			if math.Abs(res.Values[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: dist[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestBaselinesWCCMatchOracle(t *testing.T) {
	g := testGraph(3)
	want := algos.OracleWCC(g)
	for name, sys := range systems(t, g, func() core.Program { return algos.WCC{} }, Config{}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%s: label[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestBaselinesPageRankMatchOracle(t *testing.T) {
	g := testGraph(4)
	want := algos.OraclePageRank(g, 1e-12, 5000)
	for name, sys := range systems(t, g, func() core.Program { return &algos.PageRank{} }, Config{Tolerance: 1e-12, MaxIters: 5000}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: not converged", name)
		}
		for v := range want {
			if math.Abs(res.Values[v]-want[v]) > 1e-8 {
				t.Fatalf("%s: rank[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestGraphChiConstantFullIO(t *testing.T) {
	// GraphChi reads 2 passes of (adj+value) and writes values twice per
	// iteration, independent of the frontier.
	g := testGraph(5)
	src := gen.BFSSource(g)
	gc, err := NewGraphChi(g, algos.BFS{Source: src}, 4, storage.NewDevice(storage.HDD), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gc.Run()
	if err != nil {
		t.Fatal(err)
	}
	e := int64(g.NumEdges())
	wantRead := 2 * e * (graphChiAdjBytes + graphChiValBytes)
	wantWrite := 2 * e * graphChiValBytes
	for _, it := range res.Iterations {
		if it.IO.ReadBytes() != wantRead {
			t.Fatalf("iter %d: read %d, want %d", it.Iter, it.IO.ReadBytes(), wantRead)
		}
		if it.IO.WriteBytes() != wantWrite {
			t.Fatalf("iter %d: wrote %d, want %d", it.Iter, it.IO.WriteBytes(), wantWrite)
		}
	}
}

func TestGridGraphSelectiveScheduling(t *testing.T) {
	// A path: one active vertex per iteration, so only one source chunk
	// is active → GridGraph skips most blocks; its per-iteration edge
	// reads must be far below the full edge set but still a whole block.
	g := gen.Path(4096)
	gg, err := NewGridGraph(g, algos.BFS{Source: 0}, 8, storage.NewDevice(storage.HDD), Config{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gg.Run()
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterations[0]
	// Source chunk 0 (vertices 0..511) is the only active chunk; its row
	// holds blocks (0,0) with 511 edges and (0,1) with 1 edge, both
	// streamed whole. Vertex state is resident, so those 512 edges are the
	// whole read and nothing is written. The other 4095-512 edges are
	// skipped.
	wantRead := int64(512 * gridEdgeBytes)
	if it.IO.ReadBytes() != wantRead || it.IO.WriteBytes() != 0 {
		t.Fatalf("read %d and wrote %d, want %d and 0", it.IO.ReadBytes(), it.IO.WriteBytes(), wantRead)
	}
	fullEdges := int64(g.NumEdges()) * gridEdgeBytes
	edgeRead := int64(512 * gridEdgeBytes)
	if edgeRead*4 > fullEdges {
		t.Fatalf("edge reads %d not far below full %d", edgeRead, fullEdges)
	}
}

func TestGridGraphLoadsWholeBlockForOneActiveVertex(t *testing.T) {
	// The gap HUS-Graph exploits: with a single active vertex GridGraph
	// still streams every edge of that vertex's source chunk blocks.
	g := gen.Path(4096)
	// All 4095 edges have sources spread over all chunks; frontier {0}
	// activates chunk 0 only, but that chunk holds 512 edges across its
	// row of blocks... which GridGraph reads in full.
	gg, err := NewGridGraph(g, algos.BFS{Source: 0}, 8, storage.NewDevice(storage.HDD), Config{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := gg.Run()
	it := res.Iterations[0]
	if it.ActiveEdges != 1 {
		t.Fatalf("active edges = %d", it.ActiveEdges)
	}
	minUseful := int64(1) * gridEdgeBytes
	if it.IO.ReadBytes() < 100*minUseful {
		t.Fatalf("expected heavy over-read for sparse frontier, got %d bytes", it.IO.ReadBytes())
	}
}

func TestXStreamAlwaysStreamsAllEdges(t *testing.T) {
	g := testGraph(6)
	src := gen.BFSSource(g)
	xs, err := NewXStream(g, algos.BFS{Source: src}, storage.NewDevice(storage.HDD), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := xs.Run()
	if err != nil {
		t.Fatal(err)
	}
	e := int64(g.NumEdges())
	for _, it := range res.Iterations {
		if it.IO.ReadBytes() < e*xstreamEdgeBytes {
			t.Fatalf("iter %d read %d < full edge stream %d", it.Iter, it.IO.ReadBytes(), e*xstreamEdgeBytes)
		}
	}
}

func TestXStreamUpdateTrafficScalesWithFrontier(t *testing.T) {
	g := testGraph(7)
	src := gen.BFSSource(g)
	xs, err := NewXStream(g, algos.BFS{Source: src}, storage.NewDevice(storage.HDD), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := xs.Run()
	if len(res.Iterations) < 3 {
		t.Skip("graph converged too fast")
	}
	// Writes per iteration = updates + vertex state: iteration with more
	// active edges writes more.
	it0, it1 := res.Iterations[0], res.Iterations[1]
	if it1.ActiveEdges > it0.ActiveEdges && it1.IO.WriteBytes() <= it0.IO.WriteBytes() {
		t.Fatalf("update writes not scaling: %+v vs %+v", it0.IO.WriteBytes(), it1.IO.WriteBytes())
	}
}

func TestIOOrderingMatchesPaperForPageRank(t *testing.T) {
	// Fig. 9(a): I/O(GraphChi) > I/O(GridGraph) > I/O(HUS-Graph) on
	// PageRank.
	g := testGraph(8)
	iters := 5
	read := map[string]int64{}
	for name, sys := range systems(t, g, func() core.Program { return &algos.PageRank{} }, Config{MaxIters: iters}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		read[name] = res.TotalIO().TotalBytes()
	}
	// HUS via the engine (PageRank is unweighted, so its store is too).
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g,
		blockstore.Options{P: 4, Weighted: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New(ds, core.Config{MaxIters: iters}).Run(&algos.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	hus := res.TotalIO().TotalBytes()
	if !(read["GraphChi"] > read["GridGraph"] && read["GridGraph"] > hus) {
		t.Fatalf("I/O ordering wrong: GraphChi %d, GridGraph %d, HUS %d", read["GraphChi"], read["GridGraph"], hus)
	}
}

func TestBaselineInvalidConfig(t *testing.T) {
	g := testGraph(9)
	if _, err := NewGraphChi(g, algos.BFS{}, 0, storage.NewDevice(storage.HDD), Config{}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestBaselineNamesAndDevices(t *testing.T) {
	g := testGraph(10)
	for name, sys := range systems(t, g, func() core.Program { return algos.BFS{Source: 0} }, Config{}) {
		if sys.Name() != name {
			t.Fatalf("Name = %q, want %q", sys.Name(), name)
		}
		if sys.Device() == nil {
			t.Fatalf("%s: nil device", name)
		}
	}
}

func TestBaselineRejectsBadProgram(t *testing.T) {
	g := testGraph(11)
	if _, err := NewXStream(g, badProg{}, storage.NewDevice(storage.HDD), Config{}); err == nil {
		t.Fatal("bad program accepted")
	}
}

// badProg returns a mis-sized value slice from Init.
type badProg struct{ algos.BFS }

func (badProg) Init(ctx *core.Context) ([]float64, *bitset.Frontier) {
	return make([]float64, 1), bitset.NewFrontier(ctx.NumVertices)
}

func TestBaselinesKCoreMatchOracle(t *testing.T) {
	// The shared executor must handle Additive programs with partial
	// initial frontiers (peeling) exactly like the HUS engine.
	g := testGraph(12)
	sym := g.Symmetrize()
	want := algos.OracleKCore(sym, 3)
	for name, sys := range systems(t, g, func() core.Program { return algos.KCore{K: 3} }, Config{}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%s: deg[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestBaselinesPPRMatchOracle(t *testing.T) {
	g := testGraph(13)
	src := gen.BFSSource(g)
	want := algos.OraclePPR(g, src, 1e-14, 10000)
	for name, sys := range systems(t, g, func() core.Program { return &algos.PPR{Source: src, Epsilon: 1e-13} }, Config{MaxIters: 20000}) {
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: not converged", name)
		}
		for v := range want {
			if math.Abs(res.Values[v]-want[v]) > 1e-8 {
				t.Fatalf("%s: ppr[%d] = %v, want %v", name, v, res.Values[v], want[v])
			}
		}
	}
}

func TestGraphChiModeledCPUHeavierThanGridGraph(t *testing.T) {
	// The per-iteration subgraph construction makes GraphChi's modeled
	// compute exceed GridGraph's at equal thread counts.
	g := testGraph(14)
	cfg := Config{Threads: 16, MaxIters: 3}
	gc, err := NewGraphChi(g, &algos.PageRank{}, 4, storage.NewDevice(storage.RAM), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := NewGridGraph(g, &algos.PageRank{}, 4, storage.NewDevice(storage.RAM), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := gc.Run()
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Iterations[0].ComputeModeled <= rg.Iterations[0].ComputeModeled {
		t.Fatalf("GraphChi modeled compute %v not above GridGraph %v",
			rc.Iterations[0].ComputeModeled, rg.Iterations[0].ComputeModeled)
	}
}
