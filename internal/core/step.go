package core

import (
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/ioplan"
	"husgraph/internal/storage"
)

// Step is one iteration of an engine, in phases, so that a sharding
// coordinator (internal/shard) can drive K owner-scoped engines through the
// same begin → execute → finalize → account sequence Engine.RunIter runs on
// one. The lifecycle is:
//
//	InitAccumulators(prog.Kind(), s, d)        // per iteration, not per engine; Monotone: the run's first only (Drive)
//	step := e.BeginIter(prog, iter, model, frontier, next)
//	err := step.Exec(s, d)                     // accumulate phase (in interval order across shards)
//	step.FinalizeOwned(s, d)                   // owner-disjoint apply/activate (skip on error)
//	st, err := step.End()                      // window teardown + attribution
//
// The phases of one step need not share a goroutine, but each must
// happen-before the next: a coordinator that runs a phase of its K steps
// concurrently joins them before it starts the following phase. No two
// phases of one engine ever overlap, so everything a Step touches on its
// engine (scheduler window, counters) is still confined to one goroutine at
// a time, and the IterStats End returns is a value.
type Step struct {
	e    *Engine
	prog Program
	st   IterStats

	frontier *bitset.Frontier
	next     *bitset.Frontier
	win      *blockstore.Prefetcher
	live     []blockstore.Extent // a ROP step's out-block extents (Engine.live)

	start         time.Time
	ioBefore      storage.Stats
	retriesBefore int64
	hedgesBefore  int64
	unusedBefore  int64
	decBefore     blockstore.DecodeStats
	cacheBefore   blockstore.CacheStats

	maxDelta float64
	execErr  error
	ended    bool
}

// InitAccumulators prepares the D array for one iteration: monotone
// programs start from the current values (so eager per-row/column
// synchronization sees a complete copy), others accumulate from zero.
// Drive calls it once per iteration on the arrays all K owner-scoped
// executors share; it is exported for a harness that writes the loop out by
// hand. A monotone iteration leaves D == S bit for bit, so a monotone run
// needs the call only before its first executed iteration (the first after
// a resume included); repeating it every iteration is correct and
// redundant.
func InitAccumulators(kind Kind, s, d []float64) {
	if kind == Monotone {
		copy(d, s)
		return
	}
	for i := range d {
		d[i] = 0
	}
}

// StartRun prepares the engine for a sequence of steps: it resets the
// bucket hint. Drive calls it; a harness driving BeginIter directly must
// call it first.
func (e *Engine) StartRun() error {
	e.bucketed, e.bucketPri, e.bucketPending = false, 0, 0
	return nil
}

// FinishRun does nothing; perfbench/trace.go calls it.
func (e *Engine) FinishRun() {}

// PredictCosts exposes the §3.4 I/O cost prediction over this engine's
// owned intervals: the modeled cost of running the coming iteration's ROP
// rows (resp. COP columns) that this engine owns. The shard coordinator
// collects these per shard and arbitrates one global model per iteration.
func (e *Engine) PredictCosts(f *bitset.Frontier) (crop, ccop time.Duration) {
	return e.predict(f)
}

// BeginIter opens iteration iter over frontier, building the read plan and
// starting the scheduler window over it. Activations land in next. model
// selects the update model to execute; pass ModelHybrid to let the engine
// choose (RunIter's path — the α shortcut and §3.4 predictor decide), or a
// concrete model when an external arbiter (the shard coordinator) already
// chose.
func (e *Engine) BeginIter(prog Program, iter int, model Model, frontier, next *bitset.Frontier) *Step {
	s := &Step{e: e, prog: prog, frontier: frontier, next: next}
	s.ioBefore = e.ds.Device().Stats()
	s.retriesBefore = e.ds.Retries()
	s.hedgesBefore = e.ds.Hedges()
	s.unusedBefore = e.prefetchUnused.Load()
	s.decBefore = e.ds.DecodeStats()
	if e.cache != nil {
		s.cacheBefore = e.cache.Stats()
	}
	s.start = time.Now()

	s.st = IterStats{Iter: iter, ActiveVertices: e.ownedActive(frontier)}
	s.st.ActiveEdges = e.activeOutEdges(frontier)
	if e.bucketed {
		s.st.Bucketed = true
		s.st.BucketPri = e.bucketPri
		s.st.BucketPending = e.bucketPending
	}
	if model == ModelHybrid {
		s.st.Model = e.chooseModel(frontier, &s.st)
	} else {
		s.st.Model = model
	}

	var plan []blockstore.BlockKey
	if s.st.Model == ModelROP {
		s.live = e.liveFor(frontier)
		plan = ioplan.ROPKeysFor(e.ds.Layout, s.live, e.ownedOrNil())
	} else {
		plan = ioplan.COPKeysFor(e.ds.Layout, nil, e.ownedOrNil())
	}
	s.win = e.sched.Begin(plan, s.live)
	return s
}

// Model returns the update model this step executes (decided at BeginIter).
func (s *Step) Model() Model { return s.st.Model }

// Exec runs the accumulate phase of the iteration over the engine's owned
// intervals: ROP pushes the owned rows (monotone programs eagerly
// synchronize per row, exactly as before the carve), COP streams the owned
// columns including their per-column finalization (the Gauss–Seidel sweep
// is part of the accumulate order, not a barrier phase). The caller must
// have initialized d (InitAccumulators). Exec does not return activations —
// they land in the next frontier handed to BeginIter.
func (s *Step) Exec(sv, d []float64) error {
	var err error
	var md float64
	if s.st.Model == ModelROP {
		err = s.e.ropAccumulate(s.prog, sv, d, s.frontier, s.next, s.win, s.live)
	} else {
		md, err = s.e.runCOP(s.prog, sv, d, s.frontier, s.next, s.win)
	}
	if md > s.maxDelta {
		s.maxDelta = md
	}
	s.execErr = err
	return err
}

// FinalizeOwned runs the end-of-iteration apply/activate/synchronize phase
// over owned intervals: Additive and Incremental ROP iterations apply their
// accumulators here (COP applied per column during Exec); Incremental COP
// iterations consume their deferred deltas. Writes are owner-disjoint
// (vertex values of owned intervals, the engine's own next-frontier adds),
// so K shards may finalize concurrently once every shard's Exec has
// completed. Monotone steps are a no-op. Skip after an Exec error.
func (s *Step) FinalizeOwned(sv, d []float64) {
	if s.prog.Kind() == Monotone {
		return
	}
	needsApply := s.st.Model == ModelROP || s.prog.Kind() == Incremental
	if !needsApply {
		return
	}
	md := s.e.applyOwned(s.prog, sv, d, s.next)
	if md > s.maxDelta {
		s.maxDelta = md
	}
}

// End tears down the scheduler window and computes the iteration's full
// attribution (I/O, decode, modeled runtime, cache and resilience
// deltas). It must be called on every path — the window's pipeline has to
// land its device charges — and returns the Exec error, if any, alongside
// the partial stats.
func (s *Step) End() (IterStats, error) {
	if s.ended {
		return s.st, s.execErr
	}
	s.ended = true
	e := s.e
	e.liveOf = nil
	st := &s.st
	ws := e.sched.Finish(s.win)
	e.prefetchUnused.Add(ws.UnusedBytes)
	if s.execErr != nil {
		return s.st, s.execErr
	}

	st.ComputeTime = time.Since(s.start)
	edgeWork, blockWork := e.iterationWork(st.Model, s.live, st.ActiveEdges)
	st.ComputeModeled = ModeledComputeTime(edgeWork, e.ownedVertexWork(), blockWork, e.cfg.Threads)
	decDelta := e.ds.DecodeStats().Sub(s.decBefore)
	st.DecodeTime = decDelta.Time
	st.DecodedBytes = decDelta.DecodedBytes()
	st.CompressedBytes = decDelta.CompressedBytes
	st.DecodeModeled = ModeledDecodeTime(decDelta.VarintBytes, e.cfg.Threads)
	st.IO = e.ds.Device().Stats().Sub(s.ioBefore)
	st.IOTime = st.IO.SimIO
	st.PrefetchStall = ws.Stall
	// Decode placement mirrors where the decompression actually runs:
	// asynchronous pipelines decode in their prefetch workers, so the
	// work overlaps the device and lands on the CPU side of the
	// max(); synchronous loads decode inline after each read returns,
	// extending the I/O path. This is what makes compression pay most
	// on slow devices — on an HDD the shrunk reads dominate and the
	// decode hides behind them; on RAM-class storage the decode is the
	// bottleneck and compression can only break even.
	ioSide := st.IOTime
	cpuSide := st.ComputeModeled
	if e.cfg.PrefetchDepth > 0 {
		cpuSide += st.DecodeModeled
	} else {
		ioSide += st.DecodeModeled
	}
	st.Runtime = ioSide
	if cpuSide > st.Runtime {
		st.Runtime = cpuSide
	}
	st.MaxDelta = s.maxDelta
	st.Retries = e.ds.Retries() - s.retriesBefore
	st.Hedges = e.ds.Hedges() - s.hedgesBefore
	st.PrefetchUnusedBytes = e.prefetchUnused.Load() - s.unusedBefore
	if e.cache != nil {
		delta := e.cache.Stats().Sub(s.cacheBefore)
		st.CacheHits, st.CacheMisses, st.CacheEvictions = delta.Hits, delta.Misses, delta.Evictions
	}
	return s.st, nil
}
