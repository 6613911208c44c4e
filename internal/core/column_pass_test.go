package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// passGraph is a seeded power-law graph over n vertices with a ring through
// every vertex, so each has an in-edge and an out-edge: PageRank-Delta's
// frontier stays dense for its first iterations, as PageRank's always is.
func passGraph(n int, seed int64) *graph.Graph {
	g := gen.ChungLu(n, 8*n, 2.2, rand.New(rand.NewSource(seed)))
	for v := 0; v < n; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	g.Dedup()
	return g
}

func passStore(t *testing.T, g *graph.Graph, p int) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, blockstore.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// gaussSeidelPageRank is PageRank as COP sweeps compute it, written out
// serially over an in-memory CSR: interval by interval, every destination's
// in-neighbours summed in ascending source order from zero, then the
// interval applied before the next one pulls it. Engine runs that use the
// message table must reproduce it bit for bit.
func gaussSeidelPageRank(g *graph.Graph, p, iters int) []float64 {
	g = g.Clone()
	g.SortBySrc()
	in, deg := graph.BuildInCSR(g), g.OutDegrees()
	n := g.NumVertices
	layout := blockstore.NewLayout(n, p)
	s, acc := make([]float64, n), make([]float64, n)
	for v := range s {
		s[v] = 1 / float64(n)
	}
	for ; iters > 0; iters-- {
		for i := 0; i < p; i++ {
			lo, hi := layout.Bounds(i)
			for v := lo; v < hi; v++ {
				a := 0.0
				for _, u := range in.Neighbors(graph.VertexID(v)) {
					a += s[u] / float64(deg[u])
				}
				acc[v] = a
			}
			for v := lo; v < hi; v++ {
				s[v] = (1-algos.PageRankDamping)/float64(n) + algos.PageRankDamping*acc[v]
			}
		}
	}
	return s
}

// hidden hides a program's declared reduction: the engine runs it through
// the per-edge Message/Combine loops and never reads the message table, so
// it is the reference for a run that does.
type hidden struct{ core.Program }

// recorder is a core.Runner over one engine. Iteration iter runs the model
// models[iter] names (past the end, the engine's own choice), and the
// frontier each iteration activates is kept.
type recorder struct {
	e      *core.Engine
	models []core.Model
	fronts []*bitset.Frontier
}

func (r *recorder) RunIter(prog core.Program, iter int, frontier *bitset.Frontier, s, d []float64) (*bitset.Frontier, core.IterStats, error) {
	model := core.ModelHybrid
	if iter < len(r.models) {
		model = r.models[iter]
	}
	next := bitset.NewFrontier(len(s))
	step := r.e.BeginIter(prog, iter, model, frontier, next)
	if step.Exec(s, d) == nil {
		step.FinalizeOwned(s, d)
	}
	st, err := step.End()
	r.fronts = append(r.fronts, next.Clone())
	return next, st, err
}

func (r *recorder) CacheStats() blockstore.CacheStats { return r.e.CacheStats() }

// drive runs prog through core.Drive on a recorder over an engine of the
// given threads, the models forced as recorder runs them.
func drive(t *testing.T, ds *blockstore.DualStore, threads, maxIters int, models []core.Model, prog core.Program) (*core.Result, *recorder) {
	t.Helper()
	cfg := core.Config{Threads: threads, MaxIters: maxIters}.WithDefaults()
	r := &recorder{e: core.New(ds, cfg), models: models}
	res, err := core.Drive(context.Background(), r, r.e, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res, r
}

func allModels(m core.Model, n int) []core.Model {
	ms := make([]core.Model, n)
	for i := range ms {
		ms[i] = m
	}
	return ms
}

func sameValues(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: value[%d] = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// TestColumnPassSplitsAcrossThreads holds COP's column pass — and
// applyOwned, the same pass without the table — at Threads 2–4 to the
// Threads = 1 run bit for bit: values, every iteration's activations and
// counts, and its largest value change. The intervals hold 4 096 vertices,
// so from Threads 2 on every pass splits into chunks of whole bitmap words.
// The Threads = 1 runs are checked too: PageRank against the serial
// Gauss–Seidel sweep, WCC against its oracle. A pass that began before the
// column's last block was folded would miss that block's edges, or race
// with its chunk workers.
func TestColumnPassSplitsAcrossThreads(t *testing.T) {
	const n, p = 1 << 14, 4
	g := passGraph(n, 3)
	ds, sym := passStore(t, g, p), passStore(t, g.Symmetrize(), p)
	cases := []struct {
		name     string
		ds       *blockstore.DualStore
		prog     func() core.Program
		maxIters int
		models   []core.Model
		want     []float64 // nil: Threads = 1 is the only reference
	}{
		{"pagerank/additive", ds, func() core.Program { return &algos.PageRank{} }, 5, allModels(core.ModelCOP, 5), gaussSeidelPageRank(g, p, 5)},
		{"wcc/monotone", sym, func() core.Program { return algos.WCC{} }, 0, allModels(core.ModelCOP, 64), algos.OracleWCC(g.Symmetrize())},
		// Hybrid: its dense iterations run COP and apply in FinalizeOwned,
		// its sparse ones run ROP, which applies there too.
		{"pagerank-delta/incremental", ds, func() core.Program { return &algos.PageRankDelta{Epsilon: 1e-7} }, 40, nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, refRun := drive(t, c.ds, 1, c.maxIters, c.models, c.prog())
			if c.want != nil {
				sameValues(t, "threads=1", ref.Values, c.want)
			}
			for threads := 2; threads <= 4; threads++ {
				got, run := drive(t, c.ds, threads, c.maxIters, c.models, c.prog())
				what := fmt.Sprintf("threads=%d", threads)
				sameValues(t, what, got.Values, ref.Values)
				if len(got.Iterations) != len(ref.Iterations) {
					t.Fatalf("%s: %d iterations, %d at threads=1", what, len(got.Iterations), len(ref.Iterations))
				}
				for it, st := range got.Iterations {
					want := ref.Iterations[it]
					if st.Model != want.Model || st.ActiveVertices != want.ActiveVertices || math.Float64bits(st.MaxDelta) != math.Float64bits(want.MaxDelta) {
						t.Fatalf("%s iteration %d: %v, %d active, max change %v; threads=1 %v, %d, %v",
							what, it, st.Model, st.ActiveVertices, st.MaxDelta, want.Model, want.ActiveVertices, want.MaxDelta)
					}
					if f, wf := run.fronts[it], refRun.fronts[it]; f.Count() != wf.Count() || !f.Bitmap().Equal(wf.Bitmap()) {
						t.Fatalf("%s iteration %d activated %d vertices, threads=1 %d, or other ones", what, it, f.Count(), wf.Count())
					}
				}
			}
		})
	}
}

// TestMessageTableCurrency holds the message table's lifetime rule: inside
// core.Drive a sweep skips its refill while the table is current, and each
// writer of S below must leave it stale, or the next dense sweep folds the
// messages of an S that is gone. Each case is checked against the serial
// sweep or against the same run with the reduction hidden, which never
// reads the table.
func TestMessageTableCurrency(t *testing.T) {
	const n, p, iters = 1 << 12, 4, 5
	g := passGraph(n, 5)
	ds := passStore(t, g, p)
	want := gaussSeidelPageRank(g, p, iters)
	pagerank := func() core.Program { return &algos.PageRank{} }

	t.Run("rop_between_dense_cop_sweeps", func(t *testing.T) {
		models := []core.Model{core.ModelCOP, core.ModelCOP, core.ModelROP, core.ModelCOP, core.ModelCOP}
		got, _ := drive(t, ds, 2, iters, models, pagerank())
		ref, _ := drive(t, ds, 2, iters, models, hidden{pagerank()})
		for it, st := range got.Iterations {
			if st.Model != models[it] {
				t.Fatalf("iteration %d ran %v, forced %v", it, st.Model, models[it])
			}
		}
		sameValues(t, "PageRank with an ROP iteration between COP sweeps", got.Values, ref.Values)
	})

	t.Run("incremental", func(t *testing.T) {
		prog := func() core.Program { return &algos.PageRankDelta{Epsilon: 1e-12} }
		got, _ := drive(t, ds, 2, iters, allModels(core.ModelCOP, iters), prog())
		ref, _ := drive(t, ds, 2, iters, allModels(core.ModelCOP, iters), hidden{prog()})
		if dense := got.Iterations[1].ActiveVertices; dense != n {
			t.Fatalf("the second sweep has %d of %d vertices active: the case needs two dense sweeps in a row", dense, n)
		}
		sameValues(t, "PageRank-Delta", got.Values, ref.Values)
	})

	// The first run stops after three iterations, its newest checkpoint
	// behind it at two, and leaves the table current for the S of three. The
	// resumed run on the same engine starts from the S of two.
	t.Run("kill_and_resume", func(t *testing.T) {
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		rds, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Threads: 2, Model: core.ModelCOP, MaxIters: 3, CheckpointEvery: 2}.WithDefaults()
		e := core.New(rds, cfg)
		if _, err := core.Drive(context.Background(), e, e, cfg, pagerank()); err != nil {
			t.Fatal(err)
		}
		cfg.MaxIters, cfg.CheckpointEvery, cfg.Resume = iters, 0, true
		res, err := core.Drive(context.Background(), e, e, cfg, pagerank())
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.ResumedIter != 2 {
			t.Fatalf("resumed at iteration %d, want 2", res.Recovery.ResumedIter)
		}
		sameValues(t, "resumed PageRank", res.Values, want)
	})

	// Two shards share one table; the second run on the same coordinator
	// starts from a new S while the table holds the first run's messages.
	t.Run("k2", func(t *testing.T) {
		c, err := shard.New(ds, shard.Config{Config: core.Config{Threads: 2, Model: core.ModelCOP, MaxIters: iters}, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 2; run++ {
			res, err := c.Run(pagerank())
			if err != nil {
				t.Fatal(err)
			}
			sameValues(t, fmt.Sprintf("K = 2, run %d", run), res.Values, want)
		}
	})

	// Two owner-scoped engines with a table each over one S, stepped by
	// hand: each sweep changes S under the other engine's table, so every
	// sweep outside Drive must refill its own.
	t.Run("exec_outside_drive", func(t *testing.T) {
		var engines []*core.Engine
		for k := 0; k < 2; k++ {
			owner, err := core.NewIntervalRange(k*p/2, (k+1)*p/2, p)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, core.New(ds, core.Config{Threads: 2, Owner: owner}))
		}
		prog := pagerank()
		s, frontier := prog.Init(engines[0].Context())
		d := make([]float64, n)
		for iter := 0; iter < iters; iter++ {
			core.InitAccumulators(prog.Kind(), s, d)
			next := bitset.NewFrontier(n)
			for _, e := range engines {
				step := e.BeginIter(prog, iter, core.ModelCOP, frontier, next)
				if err := step.Exec(s, d); err != nil {
					t.Fatal(err)
				}
				if _, err := step.End(); err != nil {
					t.Fatal(err)
				}
			}
			frontier = next
		}
		sameValues(t, "two engines with a table each", s, want)
	})
}

// boundaryGraph is a weighted graph over p intervals of size vertices,
// with edges into and out of each interval's last vertex, whose local ID is
// the widest a record holds. Beside those it has an edge from vertex 0 to
// every sixteenth vertex and as many random edges, an eighth of an edge per
// vertex: few enough that the widest intervals run in seconds under the
// race detector, and that the random edges leave the components small, so
// WCC and SSSP converge in a few sweeps.
func boundaryGraph(p, size int) *graph.Graph {
	n := p * size
	rng := rand.New(rand.NewSource(int64(size)))
	g := graph.New(n)
	for e := 0; e < n; e += 16 {
		g.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), float32(1+rng.Intn(4)))
		g.AddWeightedEdge(0, graph.VertexID(e), float32(1+rng.Intn(4)))
	}
	for _, last := range []int{size - 1, n - 1} { // each interval's last vertex
		for _, other := range []int{0, size, last} {
			g.AddWeightedEdge(graph.VertexID(last), graph.VertexID(other), 1)
			g.AddWeightedEdge(graph.VertexID(other), graph.VertexID(last), 2)
		}
	}
	g.Dedup()
	return g
}

// boundarySizes are the interval sizes the layout boundary tests run:
// the widest interval one tile holds, one vertex more (a second tile of one
// vertex), a third tile of one vertex, and four whole tiles.
var boundarySizes = []int{blockstore.MaxCOOInterval, blockstore.MaxCOOInterval + 1, 2*blockstore.MaxCOOInterval + 1, 4 * blockstore.MaxCOOInterval}

// TestCOOLayoutBoundary builds stores on both sides of the widest interval
// one tile holds, and past it — two intervals of MaxCOOInterval vertices,
// whose in-blocks are one tile, and of 2¹⁶ + 1, 2¹⁷ + 1 and 2¹⁸, whose
// in-blocks are 2 × 2, 3 × 3 and 4 × 4 tiles, the last row and column of
// the two odd sizes a single vertex wide (boundaryGraph) — in FormatRaw,
// whose in-blocks are CodecCOO, and FormatMixed, whose in-blocks are
// CodecVarint where that is smaller. On each, forced-COP runs at 1 and 3
// threads must give PageRank (the sum kernel) the serial Gauss–Seidel
// sweep's values, WCC (the min kernel) its oracle's and weighted SSSP (the
// Combine fallback) its oracle's, bit for bit.
func TestCOOLayoutBoundary(t *testing.T) {
	const p = 2
	for _, size := range boundarySizes {
		g := boundaryGraph(p, size)
		sym := g.Symmetrize()
		for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
			want := blockstore.CodecCOO
			if format == blockstore.FormatMixed {
				want = blockstore.CodecVarint
			}
			build := func(g *graph.Graph, weighted bool) *blockstore.DualStore {
				ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, blockstore.Options{P: p, Format: format, Weighted: weighted})
				if err != nil {
					t.Fatal(err)
				}
				if got := ds.InCodec(p-1, p-1); got != want {
					t.Fatalf("%v intervals of %d: in-block (%d,%d) is %v, want %v", format, size, p-1, p-1, got, want)
				}
				return ds
			}
			cases := []struct {
				name     string
				ds       *blockstore.DualStore
				prog     core.Program
				maxIters int
				want     []float64
			}{
				{"pagerank", build(g, false), &algos.PageRank{}, 5, gaussSeidelPageRank(g, p, 5)},
				{"wcc", build(sym, false), algos.WCC{}, 0, algos.OracleWCC(sym)},
				{"sssp", build(g, true), algos.SSSP{Source: graph.VertexID(size - 1)}, 0, algos.OracleSSSP(g, graph.VertexID(size-1))},
			}
			for _, c := range cases {
				for _, threads := range []int{1, 3} {
					res, err := core.New(c.ds, core.Config{Model: core.ModelCOP, Threads: threads, MaxIters: c.maxIters}).Run(c.prog)
					if err != nil {
						t.Fatal(err)
					}
					sameValues(t, fmt.Sprintf("%s over %v intervals of %d, threads=%d", c.name, format, size, threads), res.Values, c.want)
				}
			}
		}
	}
}

// TestOutRecordBoundary is TestCOOLayoutBoundary's sibling for the row view:
// over two intervals of MaxCOOInterval vertices an out-block record holds a
// 16-bit local destination, over wider ones a 32-bit one, and the last
// vertex of each interval is the widest local ID either holds. On each size,
// forced-ROP and hybrid runs at 1 and 3 threads, in FormatRaw and
// FormatMixed stores, must give BFS (the min push) and WCC their oracles'
// values and weighted SSSP (the Combine fallback) its oracle's, bit for bit.
func TestOutRecordBoundary(t *testing.T) {
	const p = 2
	for _, size := range boundarySizes {
		g := boundaryGraph(p, size)
		sym := g.Symmetrize()
		src := graph.VertexID(size - 1)
		want := 2
		if size > blockstore.MaxCOOInterval {
			want = 4
		}
		for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
			build := func(g *graph.Graph, weighted bool) *blockstore.DualStore {
				ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, blockstore.Options{P: p, Format: format, Weighted: weighted})
				if err != nil {
					t.Fatal(err)
				}
				w := 0
				if weighted {
					w = 4
				}
				if got := ds.OutRecordBytes() - w; got != want {
					t.Fatalf("intervals of %d: %d-byte destinations, want %d", size, got, want)
				}
				return ds
			}
			cases := []struct {
				name string
				ds   *blockstore.DualStore
				prog core.Program
				want []float64
			}{
				{"bfs", build(g, false), algos.BFS{Source: src}, algos.OracleBFS(g, src)},
				{"wcc", build(sym, false), algos.WCC{}, algos.OracleWCC(sym)},
				{"sssp", build(g, true), algos.SSSP{Source: src}, algos.OracleSSSP(g, src)},
			}
			for _, c := range cases {
				for _, model := range []core.Model{core.ModelROP, core.ModelHybrid} {
					for _, threads := range []int{1, 3} {
						res, err := core.New(c.ds, core.Config{Model: model, Threads: threads}).Run(c.prog)
						if err != nil {
							t.Fatal(err)
						}
						sameValues(t, fmt.Sprintf("%s over %v intervals of %d, %v, threads=%d", c.name, format, size, model, threads), res.Values, c.want)
					}
				}
			}
		}
	}
}
