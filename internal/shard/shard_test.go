package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"husgraph/internal/algos"
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

func buildStore(t *testing.T, g *graph.Graph, p int) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, blockstore.Options{P: p, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	web := gen.Web(400, 2500, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng)
	gen.AssignUniformWeights(web, 1, 5, rng)
	rmat := gen.RMAT(256, 1600, gen.Graph500, rng)
	gen.AssignUniformWeights(rmat, 1, 5, rng)
	tree := gen.RandomTree(200, rng)
	gen.AssignUniformWeights(tree, 1, 5, rng)
	return map[string]*graph.Graph{"web": web, "rmat": rmat, "tree": tree}
}

// acrossK runs each named program over each test graph at each K, under a
// case of P = 8 and four threads on an SSD as each of configs modifies it,
// and holds every run to the shard properties of FuzzEngineConfig
// (wantSameAtK1). Each (graph, program, configuration) is one subtest,
// named graph/program/configuration; a configuration named "" adds nothing
// to the name.
func acrossK(t *testing.T, progs []string, ks []int, configs map[string]func(*engineCase)) {
	for gname, g0 := range testGraphs(t) {
		for _, pname := range progs {
			for cname, mod := range configs {
				name := gname + "/" + pname
				if cname != "" {
					name += "/" + cname
				}
				t.Run(name, func(t *testing.T) {
					var fp fuzzProgram
					for _, p := range fuzzPrograms {
						if p.name == pname {
							fp = p
						}
					}
					g, src := g0, gen.BFSSource(g0)
					fresh := func() core.Program { return fp.new(g.NumVertices, src) }
					if fresh().NeedsSymmetric() {
						g = g.Symmetrize()
					}
					for _, k := range ks {
						c := engineCase{p: 8, k: k, threads: 4, device: storage.SSD}
						mod(&c)
						what := fmt.Sprintf("%s under %+v", pname, c)
						got := c.run(t, g, fp, fresh())
						if got.k != k {
							t.Fatalf("%s: ran at K = %d", what, got.k)
						}
						if _, bucketed := fresh().(core.PriorityProgram); bucketed {
							for i, st := range got.Iterations {
								if !st.Bucketed {
									t.Fatalf("%s iteration %d: not bucketed", what, i)
								}
							}
							if !got.Converged {
								t.Fatalf("%s: did not converge", what)
							}
						}
						c.wantSameAtK1(t, g, fp, fresh, what, got)
					}
				})
			}
		}
	}
}

var plain = map[string]func(*engineCase){"": func(*engineCase) {}}

// TestShardK1Identity pins the coordinator's identity configuration: K = 1
// must reproduce core.Engine.Run bit for bit — values, convergence,
// iteration count, and every statistic that is not a host-clock
// measurement.
func TestShardK1Identity(t *testing.T) {
	acrossK(t, []string{"BFS", "WCC", "PageRank"}, []int{1}, plain)
}

// TestShardBitIdenticalAcrossK is the core acceptance property: K ∈ {2,4}
// gives K = 1's values, convergence and iteration count for every program,
// across plain, cached and pipelined configurations. Run under -race this
// also exercises RunIter's two fork-joined phases.
func TestShardBitIdenticalAcrossK(t *testing.T) {
	acrossK(t, []string{"BFS", "WCC", "PageRank"}, []int{2, 4}, map[string]func(*engineCase){
		"plain": func(*engineCase) {},
		"cache": func(c *engineCase) { c.cache = 1 << 16 },
		"pipe":  func(c *engineCase) { c.prefetch = 2 },
	})
}

// TestShardBucketedBitIdenticalAcrossK is the bucketed acceptance property:
// the coordinator routes the merged frontier through one bucket router at
// the barrier, so K ∈ {2,4} must replay K = 1's bucket sequence exactly.
func TestShardBucketedBitIdenticalAcrossK(t *testing.T) {
	acrossK(t, []string{"SSSP-Delta", "Coreness"}, []int{2, 4}, plain)
}

// TestShardCacheSlicesFollowOwnedBytes pins how the coordinator splits the
// cache budget: each shard's slice is its share of the in-column bytes (the
// stored in-blocks and in-indices of the columns it owns) rounded down, the
// slices sum to at most the budget, and K = 1 gets all of it.
func TestShardCacheSlicesFollowOwnedBytes(t *testing.T) {
	const budget = 100_003
	ds := buildStore(t, testGraphs(t)["web"], 8)
	l := ds.Layout
	for _, k := range []int{1, 2, 4} {
		co, err := shard.New(ds, shard.Config{Config: core.Config{CacheBudgetBytes: budget}, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		slices := shard.CacheBudgetsForTest(co)
		owned := make([]int64, k)
		var total, sum int64
		for j := 0; j < l.P; j++ {
			for i := 0; i < l.P; i++ {
				b := ds.InBlockBytes[i][j] + ds.InIndexBytes(i, j)
				owned[j/(l.P/k)] += b
				total += b
			}
		}
		for s, slice := range slices {
			sum += slice
			if k == 1 && slice != budget {
				t.Fatalf("K=1: slice %d, want the whole budget %d", slice, budget)
			}
			if want := budget * owned[s] / total; slice != want {
				t.Fatalf("K=%d shard %d owns %d of %d in-column bytes: slice %d, want %d", k, s, owned[s], total, slice, want)
			}
		}
		if sum > budget {
			t.Fatalf("K=%d: slices %v sum to %d over a budget of %d", k, slices, sum, budget)
		}
		if k == 2 && owned[0] == owned[1] {
			t.Fatal("the two shards own equal in-column bytes: an even split would pass too")
		}
	}
}

// arbiterAudit is a core.Runner decorator that, before each iteration,
// prices the entering frontier with one unscoped engine over the same store
// and config (no cache, so a prediction is a pure function of the frontier)
// and holds the arbiter's reported prediction to it: the shards' shares,
// priced together, must cost a frontier exactly what K = 1 prices it at.
type arbiterAudit struct {
	core.Runner
	t       *testing.T
	whole   *core.Engine
	audited int
}

func (a *arbiterAudit) RunIter(prog core.Program, iter int, f *bitset.Frontier, s, d []float64) (*bitset.Frontier, core.IterStats, error) {
	rop, cop := a.whole.PredictCosts(f)
	next, st, err := a.Runner.RunIter(prog, iter, f, s, d)
	if err == nil && (st.PredictedROP != 0 || st.PredictedCOP != 0) {
		a.audited++
		if st.PredictedROP != rop || st.PredictedCOP != cop {
			a.t.Errorf("iter %d: arbiter predicted rop %v cop %v, one engine rop %v cop %v",
				iter, st.PredictedROP, st.PredictedCOP, rop, cop)
		}
	}
	return next, st, err
}

// TestShardCombinedStats checks the K=2 combined iteration statistics:
// per-shard reports attached and sorted, the arbiter's predictions one
// engine's, skew ≥ 1, runtime = slowest shard + barrier merge.
func TestShardCombinedStats(t *testing.T) {
	g := testGraphs(t)["web"]
	ds := buildStore(t, g, 8)
	cfg := core.Config{Threads: 4, MaxIters: 30}
	co, err := shard.New(ds, shard.Config{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	audit := &arbiterAudit{Runner: co, t: t, whole: core.New(ds, cfg)}
	res, err := core.Drive(context.Background(), audit, audit.whole, cfg.WithDefaults(), algos.BFS{})
	if err != nil {
		t.Fatal(err)
	}
	if audit.audited == 0 {
		t.Fatal("no iteration was arbitrated by prediction")
	}
	if co.NumShards() != 2 || len(co.ShardDevices()) != 2 {
		t.Fatalf("NumShards/ShardDevices = %d/%d, want 2/2", co.NumShards(), len(co.ShardDevices()))
	}
	for i, st := range res.Iterations {
		if len(st.Shards) != 2 {
			t.Fatalf("iter %d: %d shard reports, want 2", i, len(st.Shards))
		}
		if st.Shards[0].Shard != 0 || st.Shards[1].Shard != 1 {
			t.Fatalf("iter %d: shard reports out of order: %d,%d", i, st.Shards[0].Shard, st.Shards[1].Shard)
		}
		if st.MergeTime <= 0 {
			t.Fatalf("iter %d: MergeTime = %v, want > 0 at K=2", i, st.MergeTime)
		}
		if st.ShardSkew < 1 {
			t.Fatalf("iter %d: ShardSkew = %v, want >= 1", i, st.ShardSkew)
		}
		var maxRun time.Duration
		for _, ss := range st.Shards {
			if ss.Stats.Runtime > maxRun {
				maxRun = ss.Stats.Runtime
			}
		}
		if want := maxRun + st.MergeTime; st.Runtime != want {
			t.Fatalf("iter %d: Runtime = %v, want max shard %v + merge %v = %v",
				i, st.Runtime, maxRun, st.MergeTime, want)
		}
	}
	// Per-shard device accounting: both shards did I/O, and the base
	// device's union view covers at least either alone.
	devs := co.ShardDevices()
	if devs[0].Stats().ReadBytes() == 0 || devs[1].Stats().ReadBytes() == 0 {
		t.Fatalf("shard devices idle: %d / %d read bytes", devs[0].Stats().ReadBytes(), devs[1].Stats().ReadBytes())
	}
}

// TestShardValidation covers New's startup checks.
func TestShardValidation(t *testing.T) {
	g := gen.RandomTree(64, rand.New(rand.NewSource(3)))
	ds := buildStore(t, g, 8)

	if _, err := shard.New(ds, shard.Config{Shards: 3}); !errors.Is(err, shard.ErrShardCount) {
		t.Fatalf("K=3 over P=8: err = %v, want ErrShardCount", err)
	}
	if _, err := shard.New(ds, shard.Config{Config: core.Config{Owner: &core.IntervalRange{Lo: 0, Hi: 8, P: 8}}, Shards: 2}); !errors.Is(err, shard.ErrOwnerSet) {
		t.Fatalf("pre-set Owner: err = %v, want ErrOwnerSet", err)
	}
}

// TestShardContextCancel checks the coordinator honors cancellation between
// iterations (and, by the package's leaktest.Main, leaves nothing running).
func TestShardContextCancel(t *testing.T) {
	g := testGraphs(t)["web"]
	co, err := shard.New(buildStore(t, g, 8), shard.Config{
		Config: core.Config{Threads: 2}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := co.RunContext(ctx, algos.BFS{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestShardErrorThenReuse fails one read of a blob only shard 1 touches:
// the run must end in an IterError naming the iteration and the model the
// shards ran, with every shard's prefetch window torn down (the package's
// leaktest.Main is that check) — and the same Coordinator, its store healthy
// again, must then run to the answer a fresh one gives.
func TestShardErrorThenReuse(t *testing.T) {
	g := testGraphs(t)["web"]
	mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
	if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: 8, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	ds, err := blockstore.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{Config: core.Config{Threads: 4, MaxIters: 10, PrefetchDepth: 2}, Shards: 2}
	co, err := shard.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In-block (0,7) is in column 7, the last of shard 1's at K=2 over P=8;
	// PageRank scans it once per iteration, so the second read is iteration 1's.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, Name: "ib/0.7", After: 1, Count: 1})
	_, err = co.Run(&algos.PageRank{})
	var ie *core.IterError
	if !errors.As(err, &ie) || !errors.Is(err, storage.ErrPermanent) || ie.Iter != 1 || ie.Model != core.ModelCOP {
		t.Fatalf("err = %v, want an IterError at iteration 1 under COP wrapping the permanent fault", err)
	}

	got, err := co.Run(&algos.PageRank{})
	if err != nil {
		t.Fatalf("second run on the same coordinator: %v", err)
	}
	fresh, err := shard.New(buildStore(t, g, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(&algos.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "reused", got.Values, want.Values)
	if got.Converged != want.Converged || len(got.Iterations) != len(want.Iterations) {
		t.Fatalf("reused: converged %v after %d iterations, fresh: %v after %d",
			got.Converged, len(got.Iterations), want.Converged, len(want.Iterations))
	}
	for i := range want.Iterations {
		if gi, wi := got.Iterations[i], want.Iterations[i]; gi.Model != wi.Model || gi.IO != wi.IO || gi.Runtime != wi.Runtime {
			t.Fatalf("iter %d: reused ran %v io %+v runtime %v, fresh %v io %+v runtime %v",
				i, gi.Model, gi.IO, gi.Runtime, wi.Model, wi.IO, wi.Runtime)
		}
	}
}

// TestMergedFrontierCost pins the barrier merge term: free at K=1, growing
// with K.
func TestMergedFrontierCost(t *testing.T) {
	if shard.MergedFrontierCost(1000, 1) != 0 {
		t.Fatal("MergedFrontierCost at K=1 must be 0")
	}
	if shard.MergedFrontierCost(1000, 3) <= shard.MergedFrontierCost(1000, 2) {
		t.Fatal("MergedFrontierCost must grow with K")
	}
}

// TestNegativeAlphaAlwaysPredicts: Config.Alpha < 0 switches the α shortcut
// off, so even a full frontier — which the default α sends to COP unpriced —
// is priced both ways, through one engine and through the coordinator's
// arbiter alike (they run the one chooser, core.ChooseModel). Before the
// chooser tested α's sign, Count > α·|V| held for every frontier and a
// negative α forced COP with both predictions zero. A BFS's sparse
// frontiers on SSD must then reach ROP through the predictor, both sides
// priced, so α −1 is not a COP-only configuration either.
func TestNegativeAlphaAlwaysPredicts(t *testing.T) {
	g := testGraphs(t)["web"]
	for _, k := range []int{1, 2} {
		for _, alpha := range []float64{0, -1} {
			co, err := shard.New(buildStore(t, g, 8), shard.Config{Config: core.Config{Alpha: alpha, Threads: 2, MaxIters: 1}, Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			res, err := co.Run(&algos.PageRank{}) // every vertex active
			if err != nil {
				t.Fatal(err)
			}
			st := res.Iterations[0]
			if st.ActiveVertices != g.NumVertices {
				t.Fatalf("K=%d α=%v: %d of %d vertices active; the test needs a full frontier", k, alpha, st.ActiveVertices, g.NumVertices)
			}
			predicted := st.PredictedROP > 0 && st.PredictedCOP > 0
			if want := alpha < 0; predicted != want {
				t.Fatalf("K=%d α=%v: predictions rop %v cop %v on a full frontier; want both priced: %v", k, alpha, st.PredictedROP, st.PredictedCOP, want)
			}
		}
		// The other side: on the sparse frontiers of a BFS over SSD, where
		// random reads are cheap, the predictor at α −1 prices every
		// iteration and picks ROP for at least one of them.
		co, err := shard.New(buildStore(t, g, 8), shard.Config{Config: core.Config{Alpha: -1, Threads: 2}, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(algos.BFS{Source: gen.BFSSource(g)})
		if err != nil {
			t.Fatal(err)
		}
		rop := 0
		for i, st := range res.Iterations {
			if st.PredictedROP <= 0 || st.PredictedCOP <= 0 {
				t.Fatalf("K=%d BFS iteration %d: predictions rop %v cop %v; α −1 prices every iteration", k, i+1, st.PredictedROP, st.PredictedCOP)
			}
			if st.Model == core.ModelROP {
				rop++
			}
		}
		if rop == 0 {
			t.Fatalf("K=%d BFS: no iteration of %d chose ROP at α −1 on SSD", k, len(res.Iterations))
		}
	}
}

// TestShardPriorityRejectsCheckpointing pins the coordinator-side guard
// (the worker engines never see RunContext, so the coordinator must reject
// checkpointed or resumed priority runs itself).
func TestShardPriorityRejectsCheckpointing(t *testing.T) {
	g := testGraphs(t)["tree"].Symmetrize()
	for _, mod := range []func(*shard.Config){
		func(c *shard.Config) { c.CheckpointEvery = 1 },
		func(c *shard.Config) { c.Resume = true },
	} {
		cfg := shard.Config{Config: core.Config{Threads: 2}, Shards: 2}
		mod(&cfg)
		co, err := shard.New(buildStore(t, g, 8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Run(&algos.Coreness{}); err == nil {
			t.Fatal("priority program with checkpointing did not error")
		}
	}
}
