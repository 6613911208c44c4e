package core

import (
	"errors"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// prefetchTestGraph is a mid-size graph with edges in every block of a 4x4
// grid, so both executors touch many blocks per iteration: vertex i has
// edges to i·17+1, i·5+11 and i·131+29, modulo 600.
func prefetchTestGraph() *graph.Graph {
	g := graph.New(600)
	for i := 0; i < 600; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*17+1)%600))
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*5+11)%600))
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*131+29)%600))
	}
	return g
}

// TestWarmCacheMovesHybridChoicesOnlyByPricing: the predictor prices a
// resident block at zero (TestCacheAwarePredictorPricesResidentBlocksFree),
// so a cached hybrid run may choose otherwise than an uncached one. On
// prefetchTestGraph it does: at the last iteration, one active vertex, ROP
// undercuts cold COP by a fraction of a percent, and the cached run's
// resident in-blocks price COP at about half. A choice may move only that
// way: same iterations and values; wherever the choices differ, both runs
// chose the cheaper of their own prices and no cached price exceeds the
// uncached one; and read-ahead moves nothing the cache did not.
func TestWarmCacheMovesHybridChoicesOnlyByPricing(t *testing.T) {
	g := prefetchTestGraph()
	runWith := func(cfg Config) *Result {
		cfg.Model, cfg.Threads = ModelHybrid, 4
		res, err := New(buildStore(t, g, 4, storage.HDD), cfg).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := runWith(Config{})
	warm := runWith(Config{CacheBudgetBytes: 64 << 20})
	piped := runWith(Config{CacheBudgetBytes: 64 << 20, PrefetchDepth: 2})
	if cold.NumIterations() != warm.NumIterations() || warm.NumIterations() != piped.NumIterations() {
		t.Fatalf("iterations: %d uncached, %d cached, %d cached and read ahead", cold.NumIterations(), warm.NumIterations(), piped.NumIterations())
	}
	for v := range cold.Values {
		if warm.Values[v] != cold.Values[v] || piped.Values[v] != cold.Values[v] {
			t.Fatalf("value[%d] = %v uncached, %v cached, %v cached and read ahead", v, cold.Values[v], warm.Values[v], piped.Values[v])
		}
	}
	cheaper := func(it IterStats) Model {
		if it.PredictedROP <= it.PredictedCOP {
			return ModelROP
		}
		return ModelCOP
	}
	for i, c := range cold.Iterations {
		w := warm.Iterations[i]
		if piped.Iterations[i].Model != w.Model {
			t.Fatalf("iter %d: read-ahead moved the cached run's %v to %v", i, w.Model, piped.Iterations[i].Model)
		}
		if c.Model == w.Model {
			continue
		}
		if c.PredictedCOP == 0 || w.PredictedCOP == 0 || cheaper(c) != c.Model || cheaper(w) != w.Model {
			t.Fatalf("iter %d: %v uncached (ROP %v, COP %v), %v cached (ROP %v, COP %v): a choice the prices do not make",
				i, c.Model, c.PredictedROP, c.PredictedCOP, w.Model, w.PredictedROP, w.PredictedCOP)
		}
		if w.PredictedROP > c.PredictedROP || w.PredictedCOP > c.PredictedCOP {
			t.Fatalf("iter %d: the cache raised a price: ROP %v → %v, COP %v → %v", i, c.PredictedROP, w.PredictedROP, c.PredictedCOP, w.PredictedCOP)
		}
	}
}

func TestPrefetchDepthDoesNotChangeIO(t *testing.T) {
	// Without a cache, the pipeline reads exactly the blocks the
	// synchronous path reads — read-ahead changes when I/O happens, never
	// what is read. Totals must match byte for byte, and so must the modeled
	// runtime: it already assumes I/O and compute overlap. A mixed store's
	// compressed in-blocks are priced by their bytes and edges alone, so
	// its runtime does not move with the depth either.
	stores := []struct {
		format blockstore.Format
		build  func() *blockstore.DualStore
	}{
		{blockstore.FormatRaw, func() *blockstore.DualStore { return buildStore(t, prefetchTestGraph(), 4, storage.HDD) }},
		{blockstore.FormatMixed, func() *blockstore.DualStore {
			return buildFormat(t, compressTestGraph(), blockstore.FormatMixed, storage.HDD)
		}},
	}
	for _, s := range stores {
		for _, model := range []Model{ModelROP, ModelCOP} {
			run := func(depth int) *Result {
				res, err := New(s.build(), Config{Model: model, Threads: 4, PrefetchDepth: depth}).Run(testBFS{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sync, async := run(0), run(3)
			if si, ai := sync.TotalIO(), async.TotalIO(); si != ai {
				t.Fatalf("%v %v: prefetch changed device traffic: sync %+v async %+v", s.format, model, si, ai)
			}
			if sr, ar := sync.TotalRuntime(), async.TotalRuntime(); sr != ar {
				t.Fatalf("%v %v: prefetch changed the modeled runtime: sync %v async %v", s.format, model, sr, ar)
			}
			if async.PrefetchUnusedBytes != 0 {
				t.Fatalf("%v %v: healthy run wasted %d prefetched bytes", s.format, model, async.PrefetchUnusedBytes)
			}
		}
	}
}

func TestCacheCutsRepeatIterationIO(t *testing.T) {
	// COP re-streams every in-block each iteration; with an adequate
	// budget, iteration 1+ must hit the cache for all of them and read
	// far fewer device bytes than iteration 0 — with identical values.
	g := prefetchTestGraph()
	uncached := func() *Result {
		ds := buildStore(t, g, 4, storage.HDD)
		res, err := New(ds, Config{Model: ModelCOP, MaxIters: 3}).Run(testCount{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	ds := buildStore(t, g, 4, storage.HDD)
	res, err := New(ds, Config{Model: ModelCOP, MaxIters: 3, CacheBudgetBytes: 64 << 20}).Run(testCount{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range uncached.Values {
		if res.Values[v] != uncached.Values[v] {
			t.Fatalf("cache changed value[%d]", v)
		}
	}
	it0, it1 := res.Iterations[0], res.Iterations[1]
	if it0.CacheMisses == 0 || it0.CacheHits != 0 {
		t.Fatalf("iteration 0 cache deltas: %+v", it0)
	}
	if it1.CacheHits == 0 || it1.CacheMisses != 0 {
		t.Fatalf("iteration 1 cache deltas: hits=%d misses=%d", it1.CacheHits, it1.CacheMisses)
	}
	if r0, r1 := it0.IO.ReadBytes(), it1.IO.ReadBytes(); r1 >= r0 {
		t.Fatalf("cached iteration read %d bytes, first read %d", r1, r0)
	}
	if it1.IOTime >= it0.IOTime {
		t.Fatalf("cached iteration I/O time %v not below first %v", it1.IOTime, it0.IOTime)
	}
	// Per-iteration deltas must sum to the final snapshot.
	var hits, misses int64
	for _, it := range res.Iterations {
		hits += it.CacheHits
		misses += it.CacheMisses
	}
	if hits != res.Cache.Hits || misses != res.Cache.Misses {
		t.Fatalf("iteration deltas (%d/%d) don't sum to snapshot (%d/%d)", hits, misses, res.Cache.Hits, res.Cache.Misses)
	}
	if res.Cache.BytesUsed <= 0 || res.Cache.Entries <= 0 {
		t.Fatalf("final cache residency empty: %+v", res.Cache)
	}
}

func TestCacheAwarePredictorPricesResidentBlocksFree(t *testing.T) {
	// After a COP iteration populates the cache, the predictor must price
	// the resident in-blocks at zero — C_cop drops below the cold
	// prediction (this is what keeps the hybrid choice honest once the
	// working set is resident).
	g := prefetchTestGraph()
	ds := buildStore(t, g, 4, storage.HDD)
	warm := New(ds, Config{Model: ModelCOP, MaxIters: 1, CacheBudgetBytes: 64 << 20})
	if _, err := warm.Run(testCount{}); err != nil {
		t.Fatal(err)
	}
	cold := New(ds, Config{})
	frontier := bitset.FullFrontier(600)
	cropCold, ccopCold := cold.PredictCosts(frontier)
	cropWarm, ccopWarm := warm.PredictCosts(frontier)
	if ccopWarm >= ccopCold {
		t.Fatalf("warm C_cop %v not below cold %v", ccopWarm, ccopCold)
	}
	if cropWarm > cropCold {
		t.Fatalf("warm C_rop %v above cold %v", cropWarm, cropCold)
	}
}

func TestEnginePrefetchRetriesTransientFaults(t *testing.T) {
	// PR-1's fault-injection semantics must survive the move into the
	// prefetch workers: transient faults are retried with backoff inside
	// the pipeline, counted in the result, and leave values untouched.
	clean, err := New(buildStore(t, pathGraph(300), 4, storage.HDD), Config{Model: ModelCOP}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{ModelCOP, ModelROP} {
		ds, fs := faultyStore(t, 300, 4, 1)
		fs.Inject(
			storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 3, Count: 2},
			storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 20, Count: 3},
		)
		res, err := New(ds, Config{Model: model, Threads: 2, PrefetchDepth: 2, ReadRetries: 3, RetryBackoff: 1}).Run(testBFS{})
		if err != nil {
			t.Fatalf("%v: transient faults with retries enabled failed the run: %v", model, err)
		}
		for v := range clean.Values {
			if clean.Values[v] != res.Values[v] {
				t.Fatalf("%v: retried run diverged at vertex %d", model, v)
			}
		}
		if res.Recovery.Retries != 5 {
			t.Fatalf("%v: Recovery.Retries = %d, want 5", model, res.Recovery.Retries)
		}
		if got := res.TotalRetries(); got != 5 {
			t.Fatalf("%v: summed IterStats.Retries = %d, want 5", model, got)
		}
	}
}

func TestEnginePrefetchSurfacesPermanentFaults(t *testing.T) {
	// A permanent fault inside a prefetch worker must become the iteration
	// error — promptly, on every configuration, never a hang (the test
	// completing is the no-hang assertion).
	for _, model := range []Model{ModelCOP, ModelROP} {
		for _, depth := range []int{1, 2, 4} {
			ds, fs := faultyStore(t, 300, 4, 1)
			fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, After: 2})
			_, err := New(ds, Config{Model: model, Threads: 4, PrefetchDepth: depth}).Run(testBFS{})
			if err == nil {
				t.Fatalf("%v depth=%d: injected permanent fault not surfaced", model, depth)
			}
			if !errors.Is(err, storage.ErrPermanent) {
				t.Fatalf("%v depth=%d: error chain lost the cause: %v", model, depth, err)
			}
		}
	}
}

// TestCacheHoldsOnlyWholeOutIndices: a page-span load of an out-index is
// cached only when its span is the whole index, and a cached index serves
// any extent. A path through four 3900-vertex intervals (4164-byte indices,
// two pages), with vertex 0 also pointing at all of interval 0: iteration 1
// pushes all of interval 0, whose span of out-index (0,0) is every page, and
// the rest walk the path one vertex an iteration, each reading one or two
// pages at a moving extent. Forced ROP through a cache, synchronous and
// through a read-ahead window, must give the uncached run's values in as
// many iterations, and leave in the cache out-index (0,0), whole, and no
// other.
func TestCacheHoldsOnlyWholeOutIndices(t *testing.T) {
	const size = 3900
	g := pathGraph(4 * size)
	for v := 2; v < size; v++ {
		g.AddEdge(0, graph.VertexID(v))
	}
	ref, err := New(buildStore(t, g, 4, storage.HDD), Config{Model: ModelROP}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 2} {
		ds := buildStore(t, g, 4, storage.HDD)
		e := New(ds, Config{Model: ModelROP, PrefetchDepth: depth, CacheBudgetBytes: 64 << 20})
		res, err := e.Run(testBFS{})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.NumIterations() != ref.NumIterations() {
			t.Fatalf("depth %d: %d iterations, want %d", depth, res.NumIterations(), ref.NumIterations())
		}
		for v := range ref.Values {
			if res.Values[v] != ref.Values[v] {
				t.Fatalf("depth %d: vertex %d = %v, want %v", depth, v, res.Values[v], ref.Values[v])
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				blk, ok := e.Cache().Get(blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
				n := 0
				if ok {
					n = len(blk.Payload)
				}
				if ok != (i == 0 && j == 0) || ok && int64(n) != ds.OutIndexBytes(0, 0) {
					t.Fatalf("depth %d: out-index (%d,%d) cached %v (%d bytes); want only (0,0), whole", depth, i, j, ok, n)
				}
			}
		}
	}
}
