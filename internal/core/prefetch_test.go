package core

import (
	"errors"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// prefetchTestGraph is a mid-size graph with edges in every block of a 4x4
// grid, so both executors touch many blocks per iteration.
func prefetchTestGraph() *graph.Graph {
	g := graph.New(600)
	for i := 0; i < 600; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*17+1)%600))
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*5+11)%600))
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*131+29)%600))
	}
	return g
}

func TestPrefetchAndCacheBitIdenticalValues(t *testing.T) {
	// The acceptance bar for the whole pipeline: any combination of
	// prefetch depth and cache budget must produce per-vertex values
	// bit-identical to the synchronous path, with the same iteration
	// trajectory (same model choices, same iteration count).
	g := prefetchTestGraph()
	variants := []Config{
		{},
		{PrefetchDepth: 2},
		{PrefetchDepth: 4},
		{CacheBudgetBytes: 64 << 20},
		{PrefetchDepth: 2, CacheBudgetBytes: 64 << 20},
	}
	for _, model := range []Model{ModelROP, ModelCOP, ModelHybrid} {
		var ref *Result
		for vi, extra := range variants {
			cfg := extra
			cfg.Model = model
			cfg.Threads = 4
			ds := buildStore(t, g, 4, storage.HDD)
			res, err := New(ds, cfg).Run(testBFS{})
			if err != nil {
				t.Fatalf("%v variant %d: %v", model, vi, err)
			}
			if vi == 0 {
				ref = res
				continue
			}
			if res.NumIterations() != ref.NumIterations() {
				t.Fatalf("%v variant %d: %d iterations, want %d", model, vi, res.NumIterations(), ref.NumIterations())
			}
			for it := range res.Iterations {
				if res.Iterations[it].Model != ref.Iterations[it].Model {
					t.Fatalf("%v variant %d iter %d: model %v, want %v", model, vi, it, res.Iterations[it].Model, ref.Iterations[it].Model)
				}
			}
			for v := range ref.Values {
				if res.Values[v] != ref.Values[v] {
					t.Fatalf("%v variant %d: value[%d] = %v, want %v", model, vi, v, res.Values[v], ref.Values[v])
				}
			}
		}
	}
}

func TestPrefetchDepthDoesNotChangeIO(t *testing.T) {
	// Without a cache, the pipeline reads exactly the blocks the
	// synchronous path reads — read-ahead changes when I/O happens, never
	// what is read. Totals must match byte for byte, and so must the modeled
	// runtime: it already assumes I/O and compute overlap.
	g := prefetchTestGraph()
	for _, model := range []Model{ModelROP, ModelCOP} {
		run := func(depth int) *Result {
			ds := buildStore(t, g, 4, storage.HDD)
			res, err := New(ds, Config{Model: model, Threads: 4, PrefetchDepth: depth}).Run(testBFS{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sync, async := run(0), run(3)
		if s, a := sync.TotalIO(), async.TotalIO(); s != a {
			t.Fatalf("%v: prefetch changed device traffic: sync %+v async %+v", model, s, a)
		}
		if s, a := sync.TotalRuntime(), async.TotalRuntime(); s != a {
			t.Fatalf("%v: prefetch changed the modeled runtime: sync %v async %v", model, s, a)
		}
		if async.PrefetchUnusedBytes != 0 {
			t.Fatalf("%v: healthy run wasted %d prefetched bytes", model, async.PrefetchUnusedBytes)
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
	cropCold, ccopCold := cold.predict(frontier)
	cropWarm, ccopWarm := warm.predict(frontier)
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
