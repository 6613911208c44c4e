package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/ioplan"
	"husgraph/internal/storage"
)

// traced is the traced half of a --trace run: repetitions driven through
// the public step API with one span per call, then the layer probes.
func (c *child) traced(budget time.Duration) error {
	if c.iterWall == 0 {
		return nil // the untraced half failed; nothing to relate a trace to
	}
	tr := newTracer(c.ms.origin)
	c.ms.tr, c.ms.timed = tr, true
	var iterWalls [][]float64
	var bestRep, bestRoot int
	var bestWall int64 = -1
	var frontiers []*bitset.Frontier
	var counts storeCounts
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start) < budget; rep++ {
		tr.rep.Store(int64(rep))
		before := c.ms.counts()
		root := tr.begin("rep")
		vals, fr, err := c.tracedRep(tr)
		tr.end(root)
		c.res.Ops++
		if err != nil {
			c.fail("traced rep %d: %v", rep, err)
			continue
		}
		if h := hashValues(vals); h != c.job.Expect {
			c.fail("traced rep %d: values hash %s, want %s", rep, h, c.job.Expect)
			continue
		}
		var walls []float64
		for _, s := range tr.spans[root:] {
			if s.Name == "iter" && s.Parent == root {
				walls = append(walls, float64(s.End-s.Start)/1e9)
			}
		}
		iterWalls = append(iterWalls, walls)
		if d := tr.spans[root].End - tr.spans[root].Start; bestWall < 0 || d < bestWall {
			bestWall, bestRep, bestRoot = d, rep, root
			frontiers = fr
			counts = c.ms.counts().sub(before)
		}
	}
	c.ms.tr = nil // the probes below are timed but not traced
	if len(iterWalls) == 0 {
		return nil
	}

	// Phase times of the fastest traced repetition.
	m := c.res.Metrics
	self := selfTimes(tr.spans)
	phase := map[string]float64{}
	var selfSum int64
	for i, s := range tr.spans[bestRoot:] {
		if s.Rep != bestRep {
			break
		}
		phase[s.Name] += float64(s.End-s.Start) / 1e9
		phase[s.Name+"/self"] += float64(self[bestRoot+i]) / 1e9
		selfSum += self[bestRoot+i]
	}
	m["core.predict_s"] = phase["core.predict"]
	m["core.begin_s"] = phase["core.begin"]
	m["core.exec_s"] = phase["core.exec"]
	m["core.exec_self_s"] = phase["core.exec/self"]
	m["core.finalize_s"] = phase["core.finalize"]
	m["core.end_s"] = phase["core.end"]
	m["trace.self_sum_ratio"] = float64(selfSum) / float64(bestWall)
	m["trace.overhead_ratio"] = bestComposite(iterWalls) / c.iterWall
	m["storage.read_ops"] = float64(counts.readOps())
	m["storage.read_bytes"] = float64(counts.readBytes)
	m["storage.read_busy_s"] = counts.readBusy.Seconds()
	m["storage.seq_ops"] = float64(counts.seqOps)
	m["storage.rand_ops"] = float64(counts.randOps)
	m["storage.bytes_per_op"] = float64(counts.readBytes) / float64(counts.readOps())
	m["storage.read_errors"] = float64(counts.readErrs)

	c.probeBlockstore()
	c.probeCache()
	c.probeIOPlan(frontiers)
	c.probeBitset(frontiers)
	c.probeShard()
	return writeTrace(c.job.TraceOut, c.w.name, tr.spans, bestRep)
}

// shardEngines builds the engines one repetition runs on, the way
// shard.New does: at K = 1 one unscoped engine, at K > 1 one owner-scoped
// engine per shard over its own accounting device with its slice of the
// cache budget. Prefetching is off so that every load happens inside the
// call that consumes it and the spans nest.
func (c *child) shardEngines() ([]*core.Engine, error) {
	cfg := c.engineConfig(nil)
	cfg.PrefetchDepth = 0
	k := c.w.shards
	if k <= 1 {
		return []*core.Engine{core.New(c.ds, cfg)}, nil
	}
	p := c.ds.Layout.P
	cfg.CacheBudgetBytes /= int64(k)
	engines := make([]*core.Engine, k)
	for s := range engines {
		owner, err := core.NewIntervalRange(s*p/k, (s+1)*p/k, p)
		if err != nil {
			return nil, err
		}
		sc := cfg
		sc.Owner = owner
		dev := storage.NewDevice(c.ds.Device().Profile())
		engines[s] = core.New(c.ds.Fork(storage.NewDeviceStore(c.ds.Store(), dev)), sc)
	}
	return engines, nil
}

// tracedRep is one repetition through Engine.StartRun → BeginIter →
// InitAccumulators → Step.Exec → FinalizeOwned → End → FinishRun, the loop
// core.Engine.Run and shard.Coordinator.Run both are, with a span around
// each call. It returns the final values and the frontier every iteration
// started from.
func (c *child) tracedRep(tr *tracer) ([]float64, []*bitset.Frontier, error) {
	engines, err := c.shardEngines()
	if err != nil {
		return nil, nil, err
	}
	prog := c.w.program(c.job.Source)
	n := c.ds.Layout.NumVertices
	s, frontier := prog.Init(engines[0].Context())
	d := make([]float64, n)
	for _, e := range engines {
		if err := e.StartRun(); err != nil {
			return nil, nil, err
		}
	}
	defer func() {
		for _, e := range engines {
			e.FinishRun()
		}
	}()
	maxIters := c.w.maxIters()
	var frontiers []*bitset.Frontier
	for iter := 0; (maxIters == 0 || iter < maxIters) && !frontier.Empty(); iter++ {
		frontiers = append(frontiers, frontier)
		it := tr.begin("iter")

		// The §3.4 arbitration, as Engine.chooseModel and
		// Coordinator.arbitrate perform it.
		sp := tr.begin("core.predict")
		model := core.ModelCOP
		if float64(frontier.Count()) <= core.DefaultAlpha*float64(n) {
			var crop, ccop time.Duration
			for _, e := range engines {
				r, p := e.PredictCosts(frontier)
				crop += r
				ccop += p
			}
			if crop <= ccop {
				model = core.ModelROP
			}
		}
		tr.end(sp)

		next := bitset.NewFrontier(n)
		pieces := []*bitset.Frontier{next}
		if len(engines) > 1 {
			pieces = make([]*bitset.Frontier, len(engines))
			for i := range pieces {
				pieces[i] = bitset.NewFrontier(n)
			}
		}
		steps := make([]*core.Step, len(engines))
		sp = tr.begin("core.begin")
		for i, e := range engines {
			steps[i] = e.BeginIter(prog, iter, model, frontier, pieces[i])
		}
		tr.end(sp)
		sp = tr.begin("core.init")
		core.InitAccumulators(prog.Kind(), s, d)
		tr.end(sp)

		sp = tr.begin("core.exec")
		var execErr error
		for _, st := range steps {
			if err := st.Exec(s, d); err != nil && execErr == nil {
				execErr = err
			}
		}
		tr.end(sp)

		sp = tr.begin("core.finalize")
		if execErr == nil {
			for _, st := range steps {
				st.FinalizeOwned(s, d)
			}
		}
		tr.end(sp)

		sp = tr.begin("core.end")
		for _, st := range steps {
			if _, err := st.End(); err != nil && execErr == nil {
				execErr = err
			}
		}
		tr.end(sp)

		if len(engines) > 1 {
			sp = tr.begin("bitset.merge")
			for _, p := range pieces {
				next.MergeAtomic(p)
			}
			next.Reindex()
			tr.end(sp)
		}
		tr.end(it)
		if execErr != nil {
			return nil, nil, fmt.Errorf("iteration %d: %w", iter, execErr)
		}
		frontier = next
	}
	return s, frontiers, nil
}

// minOf runs fn n times and returns its shortest wall time.
func minOf(n int, fn func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// probeBlockstore times one pass over every block through the loaders the
// executors use, and splits it into storage busy time and the rest
// (checksum verify, decode, index decode).
func (c *child) probeBlockstore() {
	p := c.ds.Layout.P
	sc := blockstore.GetScratch()
	defer blockstore.PutScratch(sc)
	sweep := func(load func(i, j int) error) (time.Duration, time.Duration) {
		var best, bestBusy time.Duration = -1, 0
		for n := 0; n < 3; n++ {
			before := c.ms.counts()
			t0 := time.Now()
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if err := load(i, j); err != nil {
						c.fail("probe load (%d,%d): %v", i, j, err)
						return 0, 0
					}
				}
			}
			if d := time.Since(t0); best < 0 || d < best {
				best, bestBusy = d, c.ms.counts().sub(before).readBusy
			}
		}
		return best, bestBusy
	}
	// In-blocks go through the loader the prefetch workers pick: stored-raw
	// blocks are verified and handed over as bytes, compressed ones are
	// decoded into records.
	in, busy := sweep(func(i, j int) error {
		var err error
		if c.ds.InCodec(i, j) == blockstore.CodecNone {
			_, _, err = c.ds.LoadInBlockBytesScratch(i, j, sc)
		} else {
			_, err = c.ds.LoadInBlockScratch(i, j, sc)
		}
		return err
	})
	c.res.Metrics["blockstore.load_in_sweep_s"] = in.Seconds()
	c.res.Metrics["blockstore.verify_decode_self_s"] = (in - busy).Seconds()
	idx, _ := sweep(func(i, j int) error {
		if c.ds.BlockEdgeCount[i][j] == 0 {
			return nil
		}
		_, err := c.ds.LoadOutIndexScratch(i, j, sc)
		return err
	})
	c.res.Metrics["blockstore.load_outidx_sweep_s"] = idx.Seconds()
}

// probeCache times a single-goroutine Put/Get loop over a cache under
// eviction pressure: the cost of one cache operation with nothing else
// contending for its lock.
func (c *child) probeCache() {
	const keys, entryBytes, rounds = 256, 4096, 16
	cache := blockstore.NewBlockCacheOpts(keys*entryBytes/2, blockstore.CacheOptions{Admission: blockstore.AdmitTinyLFU})
	blocks := make([]*blockstore.CachedBlock, keys)
	for i := range blocks {
		blocks[i] = &blockstore.CachedBlock{Payload: make([]byte, entryBytes)}
	}
	d := minOf(3, func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < keys; i++ {
				k := blockstore.BlockKey{Kind: blockstore.KindInBlock, I: i / 16, J: i % 16}
				if _, ok := cache.Get(k); !ok {
					cache.Put(k, blocks[i])
				}
			}
		}
	})
	c.res.Metrics["blockstore.cache_getput_ns"] = float64(d) / (keys * rounds)
}

// probeIOPlan times the planners over the frontiers the run actually had,
// and the pipeline with nothing consuming: Begin, every Next, Finish over a
// full column scan is the fastest the scheduler can deliver blocks.
func (c *child) probeIOPlan(frontiers []*bitset.Frontier) {
	l := c.ds.Layout
	var keys int
	cop := minOf(3, func() {
		for range frontiers {
			ioplan.COPKeys(l, nil)
		}
	})
	rop := minOf(3, func() {
		for _, f := range frontiers {
			ioplan.ROPKeys(l, c.ds.BlockEdgeCount, f)
		}
	})
	for k, f := range frontiers {
		if c.models[k] == core.ModelROP {
			keys += len(ioplan.ROPKeys(l, c.ds.BlockEdgeCount, f))
		} else {
			keys += len(ioplan.COPKeys(l, nil))
		}
	}
	c.res.Metrics["ioplan.cop_plan_s"] = cop.Seconds()
	c.res.Metrics["ioplan.rop_plan_s"] = rop.Seconds()
	c.res.Metrics["ioplan.plan_keys"] = float64(keys)

	sched := ioplan.NewScheduler(c.ds, nil, ioplan.Options{Depth: prefetchDepth})
	plan := ioplan.COPKeys(l, nil)
	drain := minOf(3, func() {
		win := sched.Begin(plan, nil)
		for range plan {
			res := win.Next()
			if res.Err != nil {
				c.fail("probe drain %v: %v", res.Key, res.Err)
			}
			res.Release()
		}
		sched.Finish(win)
	})
	sched.Shutdown()
	c.res.Metrics["ioplan.drain_s"] = drain.Seconds()
}

// probeBitset times the frontier operations the engine performs at every
// barrier, on the frontiers the run actually had.
func (c *child) probeBitset(frontiers []*bitset.Frontier) {
	l := c.ds.Layout
	var calls, members, merges int
	var sink int
	countIn := minOf(3, func() {
		calls = 0
		for _, f := range frontiers {
			for i := 0; i < l.P; i++ {
				lo, hi := l.Bounds(i)
				sink += f.CountIn(lo, hi)
				calls++
			}
		}
	})
	rangeIn := minOf(3, func() {
		members = 0
		for _, f := range frontiers {
			for i := 0; i < l.P; i++ {
				lo, hi := l.Bounds(i)
				f.RangeIn(lo, hi, func(int) bool { members++; return true })
			}
		}
	})
	merge := minOf(3, func() {
		merges = 0
		for _, f := range frontiers {
			dst := bitset.NewFrontier(l.NumVertices)
			dst.MergeAtomic(f)
			dst.Reindex()
			sink += dst.Count()
			merges++
		}
	})
	_ = sink
	c.res.Metrics["bitset.countin_ns"] = float64(countIn) / float64(calls)
	c.res.Metrics["bitset.rangein_ns_per_member"] = float64(rangeIn) / float64(members)
	c.res.Metrics["bitset.merge_ns"] = float64(merge) / float64(merges)
}

// probeShard compares the sharded workload with itself on one shard: the
// same program, store and total cache budget through shard.New at K = 1.
// Unsharded workloads report 0.
func (c *child) probeShard() {
	c.res.Metrics["shard.wall_over_k1"] = 0
	if c.w.shards <= 1 {
		return
	}
	clock := &iterClock{}
	var walls [][]float64
	for rep := 0; rep < 3; rep++ {
		clock.startRep()
		res, err := c.runOnce(1, func(core.IterStats) { clock.tick() })
		clock.tick()
		if c.check(fmt.Sprintf("K=1 rep %d", rep), res, err) {
			walls = append(walls, append([]float64(nil), clock.walls...))
		}
	}
	if len(walls) > 0 {
		c.res.Metrics["shard.wall_over_k1"] = c.res.Metrics["core.raw_wall_s"] / bestComposite(walls)
	}
}

// writeTrace writes the spans of one repetition, parents renumbered from
// its root, to path.
func writeTrace(path, workload string, spans []span, rep int) error {
	if path == "" {
		return nil
	}
	var out []span
	base := -1
	for i, s := range spans {
		if s.Rep != rep {
			continue
		}
		if base < 0 {
			base = i
		}
		if s.Parent >= 0 {
			s.Parent -= base
		}
		out = append(out, s)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"workload": workload, "rep": rep, "spans": out}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
