package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	ds, err := blockstore.Build(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, p)
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

func freshProg(name string) core.Program {
	switch name {
	case "BFS":
		return algos.BFS{}
	case "WCC":
		return algos.WCC{}
	case "PageRank":
		return &algos.PageRank{}
	default:
		panic("unknown program " + name)
	}
}

func wantSameValues(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", tag, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: value[%d] = %v, want %v (bit-exact)", tag, v, got[v], want[v])
		}
	}
}

// timeless returns st without its host wall-clock measurements — the only
// fields of an IterStats that two runs of one configuration may differ in —
// down through the per-shard reports of a K > 1 iteration.
func timeless(st core.IterStats) core.IterStats {
	st.ComputeTime, st.DecodeTime, st.PrefetchStall = 0, 0, 0
	if st.Shards != nil {
		shards := make([]core.ShardIterStats, len(st.Shards))
		for k, ss := range st.Shards {
			shards[k] = core.ShardIterStats{Shard: ss.Shard, Stats: timeless(ss.Stats)}
		}
		st.Shards = shards
	}
	return st
}

// TestRunReplaysExactly is the check behind every "deterministic" claim made
// about the modeled track (DESIGN.md §7, EXPERIMENTS.md) and the reason
// perfbench can gate read_bytes, read_ops and modeled_s exactly: a run's
// IterStats are a pure function of (store, config, program). Each cell runs
// twice on a freshly built store and must agree on every field of every
// iteration — model choice, predictor estimates, device traffic, modeled
// times, cache, decode, bucket and merge counters, per shard at K = 2 —
// differing only in the three host-clock fields; and the cells of one
// program agree on the values to the bit. PageRank covers COP and Coreness
// the bucketed path, both under the predictor; BFS is held to ROP — on a
// graph this size the predictor leaves it after an iteration — so its cached
// cell covers the run cache. The two cells under eviction leave BFS out: ROP
// workers insert runs concurrently, so which runs a full cache keeps still
// depends on scheduling (DESIGN.md §7). Every cell goes through shard.New,
// the one run path.
func TestRunReplaysExactly(t *testing.T) {
	web := testGraphs(t)["web"]
	sym := web.Symmetrize()
	progs := []struct {
		name  string
		g     *graph.Graph
		model core.Model
		fresh func() core.Program
	}{
		{"PageRank", web, core.ModelHybrid, func() core.Program { return &algos.PageRank{} }},
		{"BFS", web, core.ModelROP, func() core.Program { return algos.BFS{Source: gen.BFSSource(web)} }},
		{"Coreness", sym, core.ModelHybrid, func() core.Program { return &algos.Coreness{} }},
	}
	cells := []struct {
		name   string
		format blockstore.Format
		cfg    shard.Config
		noROP  bool // leave out the program held to ROP
	}{
		{"sync", blockstore.FormatRaw, shard.Config{}, false},
		// The budget holds every block, so nothing is evicted.
		{"prefetch+cache", blockstore.FormatRaw, shard.Config{Config: core.Config{PrefetchDepth: 2, CacheBudgetBytes: 64 << 20}}, false},
		// These budgets hold part of the blocks. Which ones is decided when
		// each iteration's plan is admitted, in plan order, not by the order
		// the prefetch workers land in.
		{"prefetch+cache16k", blockstore.FormatRaw, shard.Config{Config: core.Config{PrefetchDepth: 2, CacheBudgetBytes: 16 << 10}}, true},
		{"K=2+cache8k", blockstore.FormatRaw, shard.Config{Config: core.Config{PrefetchDepth: 2, CacheBudgetBytes: 8 << 10}, Shards: 2}, true},
		{"mixed", blockstore.FormatMixed, shard.Config{}, false},
		{"K=2", blockstore.FormatRaw, shard.Config{Shards: 2}, false},
		// Each shard's store fork counts its own decodes while the other
		// shard's window decodes too.
		{"K=2+mixed+prefetch", blockstore.FormatMixed, shard.Config{Config: core.Config{PrefetchDepth: 2}, Shards: 2}, false},
	}
	for _, p := range progs {
		var ref []float64
		for _, c := range cells {
			if c.noROP && p.model == core.ModelROP {
				continue
			}
			run := func() *core.Result {
				ds, err := blockstore.BuildWithFormat(storage.NewMemStore(storage.NewDevice(storage.HDD)), p.g, 8, c.format)
				if err != nil {
					t.Fatal(err)
				}
				cfg := c.cfg
				cfg.Model, cfg.Threads, cfg.MaxIters = p.model, 4, 30
				co, err := shard.New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := co.Run(p.fresh())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			tag := p.name + "/" + c.name
			first, second := run(), run()
			if c.noROP && first.Cache.AdmissionRejected == 0 {
				t.Fatalf("%s: the cache refused nothing, so the cell tests no pressure: %+v", tag, first.Cache)
			}
			if first.Converged != second.Converged || len(first.Iterations) != len(second.Iterations) {
				t.Fatalf("%s: runs ended after %d (converged %v) and %d (converged %v) iterations", tag,
					len(first.Iterations), first.Converged, len(second.Iterations), second.Converged)
			}
			for i := range first.Iterations {
				if a, b := timeless(first.Iterations[i]), timeless(second.Iterations[i]); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: iteration %d not reproducible:\n first  %+v\n second %+v", tag, i, a, b)
				}
			}
			wantSameValues(t, tag+" second run", second.Values, first.Values)
			if ref == nil {
				ref = first.Values
			}
			wantSameValues(t, tag+" against "+cells[0].name, first.Values, ref)
		}
	}
}

// TestShardK1Identity pins the coordinator's identity configuration: K=1
// must reproduce core.Engine.Run bit-for-bit — values, convergence,
// iteration count, and every per-iteration statistic that is not a
// wall-clock measurement.
func TestShardK1Identity(t *testing.T) {
	for gname, g0 := range testGraphs(t) {
		for _, pname := range []string{"BFS", "WCC", "PageRank"} {
			t.Run(gname+"/"+pname, func(t *testing.T) {
				prog := freshProg(pname)
				g := g0
				if prog.NeedsSymmetric() {
					g = g.Symmetrize()
				}
				cfg := core.Config{Threads: 4, MaxIters: 30}
				eng := core.New(buildStore(t, g, 8), cfg)
				want, err := eng.Run(freshProg(pname))
				if err != nil {
					t.Fatal(err)
				}
				co, err := shard.New(buildStore(t, g, 8), shard.Config{Config: cfg, Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := co.Run(freshProg(pname))
				if err != nil {
					t.Fatal(err)
				}
				wantSameValues(t, "K=1", got.Values, want.Values)
				if got.Converged != want.Converged {
					t.Fatalf("Converged = %v, want %v", got.Converged, want.Converged)
				}
				if len(got.Iterations) != len(want.Iterations) {
					t.Fatalf("%d iterations, want %d", len(got.Iterations), len(want.Iterations))
				}
				for i := range want.Iterations {
					if gi, wi := timeless(got.Iterations[i]), timeless(want.Iterations[i]); !reflect.DeepEqual(gi, wi) {
						t.Fatalf("iter %d diverges:\n got %+v\nwant %+v", i, gi, wi)
					}
				}
			})
		}
	}
}

// TestShardBitIdenticalAcrossK is the core acceptance property: K∈{2,4}
// produces bit-identical values, convergence and iteration counts to K=1
// for every program, across plain, cached and pipelined configurations. Run under -race this also exercises RunIter's two
// fork-joined phases.
func TestShardBitIdenticalAcrossK(t *testing.T) {
	configs := map[string]func(*shard.Config){
		"plain": func(c *shard.Config) {},
		"cache": func(c *shard.Config) { c.CacheBudgetBytes = 1 << 16 },
		"pipe":  func(c *shard.Config) { c.PrefetchDepth = 2 },
	}
	for gname, g0 := range testGraphs(t) {
		for _, pname := range []string{"BFS", "WCC", "PageRank"} {
			for cname, mod := range configs {
				t.Run(gname+"/"+pname+"/"+cname, func(t *testing.T) {
					prog := freshProg(pname)
					g := g0
					if prog.NeedsSymmetric() {
						g = g.Symmetrize()
					}
					runK := func(k int) *core.Result {
						cfg := shard.Config{Config: core.Config{Threads: 4, MaxIters: 25}, Shards: k}
						mod(&cfg)
						co, err := shard.New(buildStore(t, g, 8), cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := co.Run(freshProg(pname))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					base := runK(1)
					for _, k := range []int{2, 4} {
						got := runK(k)
						tag := fmt.Sprintf("K=%d", k)
						wantSameValues(t, tag, got.Values, base.Values)
						if got.Converged != base.Converged {
							t.Fatalf("%s: Converged = %v, want %v", tag, got.Converged, base.Converged)
						}
						if len(got.Iterations) != len(base.Iterations) {
							t.Fatalf("%s: %d iterations, want %d", tag, len(got.Iterations), len(base.Iterations))
						}
					}
				})
			}
		}
	}
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

// TestShardModelSequenceMatchesK1 pins that in the cache-free, uncompressed
// configuration — where the §3.4 cost estimates decompose exactly over
// disjoint owners — the K=2 arbiter replays K=1's per-iteration ROP/COP
// choices.
func TestShardModelSequenceMatchesK1(t *testing.T) {
	g := testGraphs(t)["web"]
	runK := func(k int) *core.Result {
		co, err := shard.New(buildStore(t, g, 8), shard.Config{
			Config: core.Config{Threads: 4, MaxIters: 30}, Shards: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(algos.BFS{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, got := runK(1), runK(2)
	if len(got.Iterations) != len(base.Iterations) {
		t.Fatalf("%d iterations, want %d", len(got.Iterations), len(base.Iterations))
	}
	for i := range base.Iterations {
		if got.Iterations[i].Model != base.Iterations[i].Model {
			t.Fatalf("iter %d: K=2 chose %v, K=1 chose %v", i, got.Iterations[i].Model, base.Iterations[i].Model)
		}
	}
}

// arbiterAudit is a core.Runner decorator that, before each iteration, sums
// PredictCosts for the entering frontier over twins of the coordinator's
// shard engines (same store, same owners, same config; no cache, so a
// prediction is a pure function of the frontier) and holds the arbiter's
// reported prediction to that sum.
type arbiterAudit struct {
	core.Runner
	t       *testing.T
	twins   []*core.Engine
	audited int
}

func (a *arbiterAudit) RunIter(prog core.Program, iter int, f *bitset.Frontier, s, d []float64) (*bitset.Frontier, core.IterStats, error) {
	var rop, cop time.Duration
	for _, e := range a.twins {
		r, c := e.PredictCosts(f)
		rop += r
		cop += c
	}
	next, st, err := a.Runner.RunIter(prog, iter, f, s, d)
	if err == nil && (st.PredictedROP != 0 || st.PredictedCOP != 0) {
		a.audited++
		if st.PredictedROP != rop || st.PredictedCOP != cop {
			a.t.Errorf("iter %d: arbiter predicted rop %v cop %v, shards' PredictCosts sum to rop %v cop %v",
				iter, st.PredictedROP, st.PredictedCOP, rop, cop)
		}
	}
	return next, st, err
}

// TestShardCombinedStats checks the K=2 combined iteration statistics:
// per-shard reports attached and sorted, the arbiter's predictions the sums
// of the shards', skew ≥ 1, runtime = slowest shard + barrier merge.
func TestShardCombinedStats(t *testing.T) {
	g := testGraphs(t)["web"]
	ds := buildStore(t, g, 8)
	cfg := core.Config{Threads: 4, MaxIters: 30}
	co, err := shard.New(ds, shard.Config{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	audit := &arbiterAudit{Runner: co, t: t}
	for k := 0; k < 2; k++ {
		pc := cfg
		if pc.Owner, err = core.NewIntervalRange(4*k, 4*(k+1), 8); err != nil {
			t.Fatal(err)
		}
		audit.twins = append(audit.twins, core.New(ds, pc))
	}
	res, err := core.Drive(context.Background(), audit, audit.twins[0], cfg.WithDefaults(), algos.BFS{})
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
	if _, err := shard.New(ds, shard.Config{Config: core.Config{Owner: core.AllIntervals(8)}, Shards: 2}); !errors.Is(err, shard.ErrOwnerSet) {
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
	if _, err := blockstore.Build(mem, g, 8); err != nil {
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
	wantSameValues(t, "reused", got.Values, want.Values)
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
