// Package shard runs a HUS-Graph program on K worker shards, each an
// owner-scoped core.Engine over a contiguous P/K-interval slice of the
// dual-block layout with its own store handle, accounting device, cache
// budget slice and prefetch windows, all over one pair of shared S/D arrays —
// the paper's §3.5 threads-over-shared-arrays parallelism with the unit
// grown from an interval to a shard. There are no messages and no
// long-lived goroutines: Coordinator.RunIter is the whole schedule.
//
// K>1 is bit-identical to the single-engine run because the accumulate
// phase runs shard after shard in interval order on one goroutine — exactly
// the sequential interval order the monolithic engine executes, so every
// Gauss–Seidel interaction (eager monotone row synchronization, COP's
// per-column finalize) happens in the same order with the same float
// arithmetic. What the shards do at once is I/O (the K prefetch windows
// open together and read ahead of the sweep) and the owner-disjoint
// finalization; frontier pieces are OR-merged afterwards.
package shard

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/storage"
)

// Config configures a sharded run: the engine configuration every shard
// inherits, plus the shard count.
type Config struct {
	core.Config
	// Shards is K, the worker-shard count; 0 or 1 runs a single engine
	// (the identity configuration — bit-identical to core.Engine.Run).
	// K must divide the layout's interval count P.
	Shards int
}

// ErrShardCount reports a shard count that does not evenly divide the
// layout's interval count P.
var ErrShardCount = fmt.Errorf("shard: shard count must divide the layout's interval count")

// ErrOwnerSet reports a Config.Owner the caller pre-set: owners are the
// coordinator's to assign.
var ErrOwnerSet = fmt.Errorf("shard: Config.Owner is assigned by the coordinator; leave it nil")

// shardWorker is one worker shard: an owner-scoped engine over its own
// store handle, plus the per-shard accounting device its I/O charges.
type shardWorker struct {
	eng *core.Engine
	dev *storage.Device
}

// Coordinator is the core.Runner over K worker shards: core.Drive owns the
// run loop, RunIter schedules one iteration across the shards and folds
// their K reports into one.
type Coordinator struct {
	ds      *blockstore.DualStore
	cfg     core.Config // resolved WithDefaults: the run's, not a shard's
	k       int
	workers []*shardWorker
	engines []*core.Engine // the workers' engines, which arbitrate prices together

	// One iteration's per-shard scratch, indexed by shard and overwritten by
	// the next; each phase's goroutines write only their own shard's slot.
	// Kept here, like each's WaitGroup, so that an iteration allocates
	// nothing for its own bookkeeping.
	steps  []*core.Step
	pieces []*bitset.Frontier
	stats  []core.IterStats
	errs   []error
	joined sync.WaitGroup // zero between calls of each
}

// New builds a coordinator over the store. It validates the shard count
// against the layout (K must divide P) and rejects a pre-set Config.Owner
// (owners are the coordinator's to assign).
func New(ds *blockstore.DualStore, cfg Config) (*Coordinator, error) {
	k := cfg.Shards
	if k <= 0 {
		k = 1
	}
	p := ds.Layout.P
	if p%k != 0 {
		return nil, fmt.Errorf("%w: %d shards over %d intervals; pick a divisor of P", ErrShardCount, k, p)
	}
	if cfg.Owner != nil {
		return nil, ErrOwnerSet
	}
	resolved := cfg.Config.WithDefaults()
	c := &Coordinator{
		ds:     ds,
		cfg:    resolved,
		k:      k,
		steps:  make([]*core.Step, k),
		pieces: make([]*bitset.Frontier, k),
		stats:  make([]core.IterStats, k),
		errs:   make([]error, k),
	}
	if k == 1 {
		// The identity configuration: the one engine runs unscoped over
		// the original store, exactly as core.New would build it.
		c.workers = []*shardWorker{{eng: core.New(ds, resolved), dev: ds.Device()}}
		return c, nil
	}
	per := resolved
	per.OnIteration = nil
	span := p / k
	slices := cacheSlices(ds, resolved.CacheBudgetBytes, k)
	// One message table beside the shared S/D arrays, not one per engine:
	// RunIter runs the Execs one after another, and each engine leaves the
	// entries of the intervals it synchronised current.
	msgs := new(core.MessageTable)
	for s := 0; s < k; s++ {
		pc := per
		owner, err := core.NewIntervalRange(s*span, (s+1)*span, p)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d owner: %w", s, err)
		}
		pc.Owner = owner
		pc.CacheBudgetBytes = slices[s]
		dev := storage.NewDevice(ds.Device().Profile())
		eng := core.New(ds.Fork(storage.NewDeviceStore(ds.Store(), dev)), pc)
		eng.ShareMessageTable(msgs)
		c.workers = append(c.workers, &shardWorker{eng: eng, dev: dev})
		c.engines = append(c.engines, eng)
	}
	return c, nil
}

// cacheSlices splits budget between k shards in proportion to the in-column
// bytes each owns — the stored in-blocks of its destination intervals,
// which is what a COP sweep of its columns reads and what the cache charges
// for them (InBlockBytes) — rounding each
// slice down. With no budget or no edges the split is even. A slice sized to
// what its shard sweeps keeps one shard's slice from idling while the
// other's falls short.
func cacheSlices(ds *blockstore.DualStore, budget int64, k int) []int64 {
	l := ds.Layout
	owned := make([]int64, k)
	var total int64
	for j := 0; j < l.P; j++ { // column j: in-blocks (i, j)
		for i := 0; i < l.P; i++ {
			b := ds.InBlockBytes[i][j]
			owned[j*k/l.P] += b
			total += b
		}
	}
	slices := make([]int64, k)
	for s := range slices {
		if total == 0 || budget <= 0 {
			slices[s] = budget / int64(k)
			continue
		}
		hi, lo := bits.Mul64(uint64(budget), uint64(owned[s]))
		q, _ := bits.Div64(hi, lo, uint64(total))
		slices[s] = int64(q)
	}
	return slices
}

// NumShards returns K.
func (c *Coordinator) NumShards() int { return c.k }

// ShardDevices returns the per-shard accounting devices in shard order
// (at K=1 the single entry is the store's base device).
func (c *Coordinator) ShardDevices() []*storage.Device {
	devs := make([]*storage.Device, c.k)
	for i, w := range c.workers {
		devs[i] = w.dev
	}
	return devs
}

// Run executes prog to convergence (or the configured iteration bound).
func (c *Coordinator) Run(prog core.Program) (*core.Result, error) {
	return c.RunContext(context.Background(), prog)
}

// RunContext is Run with cancellation: core.Drive's loop over this
// coordinator, with the run's own configuration (the shards' copies carry
// no OnIteration and a slice of the cache budget) and shard 0's engine for
// checkpoints and the program Context.
func (c *Coordinator) RunContext(ctx context.Context, prog core.Program) (*core.Result, error) {
	return core.Drive(ctx, c, c.workers[0].eng, c.cfg, prog)
}

// CacheStats implements core.Runner: every shard's cache, summed.
func (c *Coordinator) CacheStats() blockstore.CacheStats {
	var t blockstore.CacheStats
	for _, w := range c.workers {
		t = t.Add(w.eng.CacheStats())
	}
	return t
}

// RunIter implements core.Runner, and is where the shards are scheduled.
// At K=1 the one unscoped engine runs the iteration and that is all. At
// K>1: one model is arbitrated for all shards; every shard begins at once,
// so the K prefetch windows open together; the accumulate sweeps then run
// one after another in shard — that is, interval — order on this
// goroutine, which is the whole bit-identity argument: S and D see exactly
// the writes, in exactly the order, a single engine sweeping intervals
// 0..P−1 would make; finalization and window teardown write owner-disjoint
// state and run at once; the pieces are merged and the K reports combined.
// A started iteration always runs every phase on every shard, so no window
// is left open whichever shard failed.
func (c *Coordinator) RunIter(prog core.Program, iter int, frontier *bitset.Frontier, s, d []float64) (*bitset.Frontier, core.IterStats, error) {
	if c.k == 1 {
		return c.workers[0].eng.RunIter(prog, iter, frontier, s, d)
	}
	n := c.ds.Layout.NumVertices
	var header core.IterStats
	model := c.arbitrate(frontier, &header)

	c.each(func(i int, w *shardWorker) {
		c.pieces[i] = bitset.NewFrontier(n)
		c.steps[i] = w.eng.BeginIter(prog, iter, model, frontier, c.pieces[i])
	})
	for i, step := range c.steps {
		c.errs[i] = step.Exec(s, d)
	}
	c.each(func(i int, _ *shardWorker) {
		if c.errs[i] == nil {
			c.steps[i].FinalizeOwned(s, d)
		}
		c.stats[i], c.errs[i] = c.steps[i].End()
	})
	for i, err := range c.errs { // deterministic: the lowest erring shard wins
		if err != nil {
			return nil, c.stats[i], err
		}
	}

	next := bitset.NewFrontier(n)
	for _, p := range c.pieces {
		next.MergeAtomic(p)
	}
	next.Reindex()
	return next, c.combine(iter, frontier, header), nil
}

// each runs fn for every shard and returns once all have: shard 0 on the
// calling goroutine, the others on one of their own. It is the only
// concurrency in the package, and nothing it starts outlives the call.
func (c *Coordinator) each(fn func(i int, w *shardWorker)) {
	for i, w := range c.workers[1:] {
		c.joined.Add(1)
		go func() {
			defer c.joined.Done()
			fn(i+1, w)
		}()
	}
	fn(0, c.workers[0])
	c.joined.Wait()
}

// arbitrate chooses one global model for the coming iteration with the
// unsharded engine's chooser (core.ChooseModel) over the global frontier,
// the shards' §3.4 cost shares priced together (core.PredictCostsOver): the
// shares decompose over disjoint owners, so without a cache the arbiter
// prices every frontier exactly as K = 1 does.
func (c *Coordinator) arbitrate(frontier *bitset.Frontier, st *core.IterStats) core.Model {
	return core.ChooseModel(c.cfg, frontier, st, func(f *bitset.Frontier) (crop, ccop time.Duration) {
		return core.PredictCostsOver(f, c.engines...)
	})
}

// combine folds the K per-shard iteration reports in c.stats into the run's
// combined IterStats. Capacity-like quantities (I/O traffic, modeled compute,
// compressed bytes, cache counters) sum; wall-like quantities
// (IOTime, ComputeTime, PrefetchStall, per-shard Runtime) take the maximum,
// modeling K devices serving disjoint ranges in parallel — so the combined
// IOTime is deliberately max-of-shards rather than IO.SimIO, which carries
// the summed traffic. Runtime is the slowest shard's wall plus the modeled
// barrier merge. Each shard's store fork counts its own compressed
// in-blocks, so the decode fields sum. Retries and the bucket fields are
// run-level: core.Drive fills them (see core.ShardIterStats).
func (c *Coordinator) combine(iter int, frontier *bitset.Frontier, header core.IterStats) core.IterStats {
	st := core.IterStats{
		Iter:           iter,
		ActiveVertices: frontier.Count(),
		Model:          c.stats[0].Model,
		PredictedROP:   header.PredictedROP,
		PredictedCOP:   header.PredictedCOP,
		Shards:         make([]core.ShardIterStats, 0, c.k),
	}
	var maxRuntime, sumRuntime time.Duration
	for i, ss := range c.stats {
		st.ActiveEdges += ss.ActiveEdges
		st.IO = st.IO.Add(ss.IO)
		if ss.IOTime > st.IOTime {
			st.IOTime = ss.IOTime
		}
		if ss.ComputeTime > st.ComputeTime {
			st.ComputeTime = ss.ComputeTime
		}
		st.ComputeModeled += ss.ComputeModeled
		st.DecodeTime += ss.DecodeTime
		st.DecodedBytes += ss.DecodedBytes
		st.CompressedBytes += ss.CompressedBytes
		if ss.PrefetchStall > st.PrefetchStall {
			st.PrefetchStall = ss.PrefetchStall
		}
		if ss.MaxDelta > st.MaxDelta {
			st.MaxDelta = ss.MaxDelta
		}
		st.CacheHits += ss.CacheHits
		st.CacheMisses += ss.CacheMisses
		st.CacheEvictions += ss.CacheEvictions
		st.PrefetchUnusedBytes += ss.PrefetchUnusedBytes
		if ss.Runtime > maxRuntime {
			maxRuntime = ss.Runtime
		}
		sumRuntime += ss.Runtime
		st.Shards = append(st.Shards, core.ShardIterStats{Shard: i, Stats: ss})
	}
	st.MergeTime = MergedFrontierCost(c.ds.Layout.NumVertices, c.k)
	st.Runtime = maxRuntime + st.MergeTime
	if sumRuntime > 0 {
		st.ShardSkew = float64(maxRuntime) * float64(c.k) / float64(sumRuntime)
	}
	return st
}

// mergeNsPerByte prices the barrier's OR-merge of frontier pieces — modeled
// per byte of dense bitmap, not measured, so replayed runs stay
// deterministic.
const mergeNsPerByte = 0.2

// MergedFrontierCost prices the barrier's OR-merge of K pieces into the
// next frontier: K−1 OR passes priced per byte of the dense bitmap
// ((n+7)/8 bytes over n vertices).
func MergedFrontierCost(n, k int) time.Duration {
	if k <= 1 {
		return 0
	}
	bitmapBytes := int64((n + 7) / 8)
	return time.Duration(float64(k-1) * float64(bitmapBytes) * mergeNsPerByte)
}
