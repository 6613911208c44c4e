package core

import (
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
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
// engine (prefetch window, counters) is still confined to one goroutine at
// a time, and the IterStats End returns is a value. Run-level fields —
// retries, hedges, the bucket — are Drive's to fill: End leaves them zero.
type Step struct {
	e    *Engine
	prog Program
	st   IterStats

	frontier *bitset.Frontier
	next     *bitset.Frontier
	win      *blockstore.Prefetcher
	live     []blockstore.Extent // a ROP step's out-block extents (Engine.live)

	start       time.Time
	ioBefore    storage.Stats
	decBefore   blockstore.DecodeStats
	cacheBefore blockstore.CacheStats

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

// StartRun does nothing: an engine holds no run state. perfbench/trace.go
// calls it.
func (e *Engine) StartRun() error { return nil }

// FinishRun does nothing; perfbench/trace.go calls it.
func (e *Engine) FinishRun() {}

// BeginIter opens iteration iter over frontier, building the read plan and
// opening the prefetch window over it. Activations land in next. model
// selects the update model to execute; pass ModelHybrid to let the engine
// choose (RunIter's path — the α shortcut and §3.4 predictor decide), or a
// concrete model when an external arbiter (the shard coordinator) already
// chose.
func (e *Engine) BeginIter(prog Program, iter int, model Model, frontier, next *bitset.Frontier) *Step {
	s := &Step{e: e, prog: prog, frontier: frontier, next: next}
	s.ioBefore = e.ds.Device().Stats()
	s.decBefore = e.ds.DecodeStats()
	if e.cache != nil {
		s.cacheBefore = e.cache.Stats()
	}
	s.start = time.Now()

	s.st = IterStats{Iter: iter, ActiveVertices: frontier.CountIn(e.vlo, e.vhi)}
	s.st.ActiveEdges = e.activeOutEdges(frontier)
	if model == ModelHybrid {
		s.st.Model = ChooseModel(e.cfg, frontier, &s.st, e.PredictCosts)
	} else {
		s.st.Model = model
	}

	var plan []blockstore.BlockKey
	if s.st.Model == ModelROP {
		s.live = e.liveFor(frontier)
		plan = e.ropPlan(s.live)
	} else {
		plan = e.copPlan()
	}
	s.win = e.ds.NewPrefetcher(plan, s.live, e.cfg.PrefetchDepth, e.cache)
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

// End closes the prefetch window and computes the iteration's attribution
// (I/O, decode, modeled runtime, cache deltas, read-ahead waste). It must be called on every path — the window's pipeline has to
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
	s.win.Close()
	if s.execErr != nil {
		return s.st, s.execErr
	}

	st.ComputeTime = time.Since(s.start)
	edgeWork, blockWork := e.iterationWork(st.Model, s.live, st.ActiveEdges)
	st.ComputeModeled = ModeledComputeTime(edgeWork, int64(e.vhi-e.vlo), blockWork, e.cfg.Threads)
	decDelta := e.ds.DecodeStats().Sub(s.decBefore)
	st.DecodeTime = decDelta.Time
	st.DecodedBytes = decDelta.VarintBytes
	st.CompressedBytes = decDelta.CompressedBytes
	st.DecodeModeled = ModeledDecodeTime(decDelta.VarintBytes, e.cfg.Threads)
	st.IO = e.ds.Device().Stats().Sub(s.ioBefore)
	st.IOTime = st.IO.SimIO
	st.PrefetchStall = s.win.StallTime()
	st.PrefetchUnusedBytes = s.win.UnusedBytes()
	// Decode placement is a kept convention, not where decode runs: with
	// prefetch it lands on the CPU side of the max(), at depth 0 on the
	// I/O side, as when the loads decoded. A COP in-block is now folded
	// as stored, in the edge loop, so at depth 0 the model charges the
	// I/O path with work the CPU does — a known deviation, kept so
	// modeled numbers replay, until the decode rate is calibrated
	// (DESIGN.md §4f).
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
	if e.cache != nil {
		delta := e.cache.Stats().Sub(s.cacheBefore)
		st.CacheHits, st.CacheMisses, st.CacheEvictions = delta.Hits, delta.Misses, delta.Evictions
	}
	return s.st, nil
}
