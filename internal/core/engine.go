package core

import (
	"context"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// Engine runs vertex programs over a dual-block store with the hybrid
// update strategy.
type Engine struct {
	ds  *blockstore.DualStore
	cfg Config
	ctx *Context

	// lo, hi are the intervals this engine plans, predicts and executes,
	// and vlo, vhi their vertices. Resolved from Config.Owner at New.
	lo, hi   int
	vlo, vhi int

	// cop is the COP sweep's edge-kernel state, reused block after block;
	// msgs is the per-source message table its fast path reads — the
	// engine's own unless a coordinator shared one (kernel.go).
	cop  copKernel
	msgs *MessageTable

	// cache is the budgeted hot-block cache shared by ROP and COP
	// pipelines across iterations; nil when Config.CacheBudgetBytes is 0.
	cache *blockstore.BlockCache

	// live holds the extents of the out-blocks of the owned rows
	// (markLive) for liveOf, the frontier they were recorded for.
	// The predictor records the frontier it prices; BeginIter reuses that
	// record for the same frontier, or makes it, and the step's plan,
	// prefetcher, executor and compute model read it; End forgets liveOf, so
	// a record never outlives its iteration.
	live   []blockstore.Extent
	liveOf *bitset.Frontier

	// ckptSlot is the next checkpoint generation slot (0 or 1) to write;
	// loadCheckpoint points it away from the generation it resumed from.
	ckptSlot int
}

// New creates an engine over the given store.
func New(ds *blockstore.DualStore, cfg Config) *Engine {
	// The engine reads through its own view of the store, so the policies
	// installed below are this engine's — the zero policy is "off" —
	// whatever an engine before or beside it on the same DualStore asked
	// for. Metadata and counters stay shared.
	ds = ds.Fork(ds.Store())
	e := &Engine{
		ds:  ds,
		cfg: cfg.WithDefaults(),
		ctx: &Context{
			NumVertices: ds.Layout.NumVertices,
			OutDegrees:  ds.OutDegrees,
			InDegrees:   ds.InDegrees,
		},
		msgs: new(MessageTable),
	}
	lo, hi, err := resolveOwner(e.cfg.Owner, ds.Layout.P)
	if err != nil {
		// An invalid owner is a programmer error on the sharding layer's
		// side (the CLI validates -shards before any engine exists).
		panic(err)
	}
	e.lo, e.hi = lo, hi
	e.vlo, _ = ds.Layout.Bounds(lo)
	_, e.vhi = ds.Layout.Bounds(hi - 1)
	if e.cfg.CacheBudgetBytes > 0 {
		e.cache = blockstore.NewBlockCache(e.cfg.CacheBudgetBytes)
	}
	ds.SetRetryPolicy(blockstore.RetryPolicy{
		MaxRetries: e.cfg.ReadRetries,
		Backoff:    e.cfg.RetryBackoff,
		Deadline:   e.cfg.ReadDeadline,
		Jitter:     retryJitter,
	})
	return e
}

// Context returns the graph context handed to programs.
func (e *Engine) Context() *Context { return e.ctx }

// Device returns the simulated device charged by this engine's store.
func (e *Engine) Device() *storage.Device { return e.ds.Device() }

// Run executes prog to convergence (or the configured iteration bound) and
// returns the final values with per-iteration statistics.
func (e *Engine) Run(prog Program) (*Result, error) {
	return e.RunContext(context.Background(), prog)
}

// RunContext is Run with cancellation: ctx is checked between iterations
// and ctx.Err() returned wrapped once it is done (see Drive, which owns the
// loop). Combine with Config.CheckpointEvery to make cancelled long jobs
// resumable.
func (e *Engine) RunContext(ctx context.Context, prog Program) (*Result, error) {
	return Drive(ctx, e, e, e.cfg, prog)
}

// RunIter implements Runner: one iteration through the Step lifecycle, the
// engine choosing the model itself.
func (e *Engine) RunIter(prog Program, iter int, frontier *bitset.Frontier, s, d []float64) (*bitset.Frontier, IterStats, error) {
	next := bitset.NewFrontier(len(s))
	step := e.BeginIter(prog, iter, ModelHybrid, frontier, next)
	if step.Exec(s, d) == nil {
		step.FinalizeOwned(s, d)
	}
	st, err := step.End()
	return next, st, err
}

// CacheStats implements Runner.
func (e *Engine) CacheStats() blockstore.CacheStats {
	if e.cache == nil {
		return blockstore.CacheStats{}
	}
	return e.cache.Stats()
}

// Cache returns the engine's block cache, or nil when caching is disabled.
func (e *Engine) Cache() *blockstore.BlockCache { return e.cache }

// activeOutEdges sums the out-degrees of the frontier's vertices in owned
// intervals: the paper's "active edges" metric (Fig. 1) and the Σ d_v term
// of C_rop, scoped to what this engine will actually push.
func (e *Engine) activeOutEdges(f *bitset.Frontier) int64 {
	return f.SumIn(e.vlo, e.vhi, e.ds.OutDegrees)
}

// ChooseModel is the I/O-based performance prediction (§3.4) at iteration
// granularity — the one copy of it, which an engine and the shard
// coordinator both run. A forced model (cfg.Model) wins. Under ModelHybrid a
// frontier of more than cfg.Alpha·|V| vertices takes COP without predicting
// (the α shortcut), unless cfg.Alpha is negative, which switches the
// shortcut off; otherwise predict prices both models for f, their costs go
// into st's prediction fields, and the cheaper one runs — ROP on a tie. cfg
// is resolved (WithDefaults), so an Alpha of 0 has become DefaultAlpha.
func ChooseModel(cfg Config, f *bitset.Frontier, st *IterStats, predict func(*bitset.Frontier) (crop, ccop time.Duration)) Model {
	if cfg.Model != ModelHybrid {
		return cfg.Model
	}
	if cfg.Alpha >= 0 && float64(f.Count()) > cfg.Alpha*float64(f.Len()) {
		return ModelCOP
	}
	crop, ccop := predict(f)
	st.PredictedROP, st.PredictedCOP = crop, ccop
	if crop <= ccop {
		return ModelROP
	}
	return ModelCOP
}

// PredictCosts estimates C_rop and C_cop for the current frontier over this
// engine's owned intervals — the modeled cost of running the coming
// iteration's ROP rows (resp. COP columns) this engine owns. It is the
// paper's §3.4 model with the single T_random divisor expanded into the
// device's per-access latency plus transfer bandwidth (the quantity fio
// would have measured), and with the executor's access coalescing
// mirrored: when a block's active ranges sit closer together than the
// device's coalesce gap, loading it degenerates into one scan instead of
// per-vertex seeks. C_cop is the column scan's sequential bytes alone,
// whatever the in-blocks' codec: a compressed in-block is folded as stored,
// so there is no decode to price.
func (e *Engine) PredictCosts(f *bitset.Frontier) (crop, ccop time.Duration) {
	return PredictCostsOver(f, e)
}

// PredictCostsOver is PredictCosts over the union of the engines' owned
// intervals — engines over one store under one configuration, such as a
// shard coordinator's. It sums their unpriced shares and prices the sums
// once, so without a cache it prices f exactly as one engine owning every
// interval: summing each engine's PredictCosts rounds once per engine,
// which can tip a near tie the other way.
func PredictCostsOver(f *bitset.Frontier, engines ...*Engine) (crop, ccop time.Duration) {
	var pageBytes, pageReads, copBytes int64
	for _, e := range engines {
		random, pb, pr := e.ropCost(f)
		crop += random
		pageBytes, pageReads, copBytes = pageBytes+pb, pageReads+pr, copBytes+e.copScanBytes()
	}
	prof := engines[0].ds.Device().Profile()
	crop += prof.RandTime(pageBytes, pageReads)
	ccop = prof.SeqTime(copBytes)
	return crop, ccop
}

// markLive records in e.live, reusing its array, the extent of each
// out-block of the owned rows for f — the ends of f ∧ the block's source
// mask (DualStore.Extent) — block (i, j) at i·P+j. The blocks of the rows
// not owned, and of the rows without an active vertex, are all dead. It is a
// ROP iteration's one walk of the masks for extents: the plan (ropPlan),
// the window's page spans and section walks, the executor, the predictor and
// the compute model all read what it records.
func (e *Engine) markLive(f *bitset.Frontier) []blockstore.Extent {
	l := e.ds.Layout
	if len(e.live) != l.P*l.P {
		e.live = make([]blockstore.Extent, l.P*l.P)
	}
	clear(e.live)
	for i := e.lo; i < e.hi; i++ {
		if lo, hi := l.Bounds(i); f.CountIn(lo, hi) > 0 {
			for j := 0; j < l.P; j++ {
				e.live[i*l.P+j] = e.ds.Extent(i, j, f)
			}
		}
	}
	e.liveOf = f
	return e.live
}

// liveFor returns the extents of the owned rows' out-blocks for f: the
// record this iteration's prediction made for f, or a new one.
func (e *Engine) liveFor(f *bitset.Frontier) []blockstore.Extent {
	if e.liveOf == f {
		return e.live
	}
	return e.markLive(f)
}

// ropPlan returns the ordered read plan of a ROP iteration over the owned
// rows: the out-index of every block live in live (markLive), row-major —
// exactly the blocks, in exactly the order, ropAccumulate visits.
func (e *Engine) ropPlan(live []blockstore.Extent) []blockstore.BlockKey {
	p := e.ds.Layout.P
	plan := make([]blockstore.BlockKey, 0, (e.hi-e.lo)*p)
	for i := e.lo; i < e.hi; i++ {
		for j := 0; j < p; j++ {
			if live[i*p+j].Live() {
				plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
			}
		}
	}
	return plan
}

// copPlan returns the ordered read plan of a COP iteration over the owned
// columns: column by column, each column's in-blocks top to bottom —
// in-block (j, i) keyed {KindInBlock, I: j, J: i} — the order runCOP
// consumes them in.
func (e *Engine) copPlan() []blockstore.BlockKey {
	p := e.ds.Layout.P
	plan := make([]blockstore.BlockKey, 0, (e.hi-e.lo)*p)
	for i := e.lo; i < e.hi; i++ {
		for j := 0; j < p; j++ {
			plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindInBlock, I: j, J: i})
		}
	}
	return plan
}

// ropCost is what PredictCosts prices a ROP iteration at, over the live
// blocks of the owned rows only (markLive), the ones the executor visits: the
// random reads of the active sections and, per live block, the one range
// read of the out-index pages its extent spans (OutIndexSpan): random prices
// the sections block by block; the pageReads page spans, pageBytes in all,
// are left to the caller to price. Out-indices resident in the block cache
// are served from memory and priced at zero. The row view is stored
// raw, so nothing is read whole or decoded; and the vertex arrays are
// resident, so no vertex byte is priced (DESIGN.md §2a).
func (e *Engine) ropCost(f *bitset.Frontier) (random time.Duration, pageBytes, pageReads int64) {
	l := e.ds.Layout
	prof := e.ds.Device().Profile()
	coalesce := prof.CoalesceBytes()
	deg := e.ds.OutDegrees
	live := e.markLive(f)
	for i := e.lo; i < e.hi; i++ {
		lo, hi := l.Bounds(i)
		k := int64(f.CountIn(lo, hi))
		if k == 0 {
			continue
		}
		// Active out-edge bytes of this row (exact).
		rowActive := f.SumIn(lo, hi, deg)
		var rowEdges int64
		for j := 0; j < l.P; j++ {
			rowEdges += e.ds.BlockEdgeCount[i][j]
		}
		for j := 0; j < l.P; j++ {
			x := live[i*l.P+j]
			if !x.Live() {
				continue
			}
			if e.cache == nil || !e.cache.Peek(blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j}) {
				off, end := e.ds.OutIndexSpan(i, j, x)
				pageBytes += end - off
				pageReads++
			}
			cnt := e.ds.BlockEdgeCount[i][j]
			b := e.ds.OutBlockBytes(i, j)
			// Run-granular cache residency: a promoted out-block serves
			// every run from memory; partial run residency discounts the
			// block's cost proportionally (resident runs are re-read
			// free, and resident bytes correlate with re-touched ranges).
			discount := 1.0
			if e.cache != nil {
				if e.cache.Peek(blockstore.BlockKey{Kind: blockstore.KindOutBlock, I: i, J: j}) {
					continue
				}
				if rb := e.cache.RunBytesResident(i, j); rb > 0 {
					frac := float64(rb) / float64(b)
					if frac > 1 {
						frac = 1
					}
					discount = 1 - frac
				}
			}
			// Useful bytes in this block, assuming the row's active
			// edges spread proportionally to block sizes.
			useful := float64(rowActive) * float64(b) / float64(rowEdges)
			kEff := k
			if kEff > cnt {
				kEff = cnt
			}
			gap := (float64(b) - useful) / float64(kEff)
			if gap <= float64(coalesce) {
				// Dense regime: ranges merge into (nearly) one scan.
				random += time.Duration(discount * float64(prof.RandTime(b, 1)))
			} else {
				// Sparse regime: one positioning per active vertex.
				random += time.Duration(discount * float64(prof.RandTime(int64(useful), kEff)))
			}
		}
	}
	return random, pageBytes, pageReads
}

// copScanBytes is what PredictCosts prices a COP iteration at: the sequential
// bytes streaming every owned column's in-blocks moves. In-blocks resident
// in the block cache skip the device, so their reads are priced at zero —
// this is what lets the predictor keep preferring COP once the hot columns
// have been cached.
func (e *Engine) copScanBytes() (seqBytes int64) {
	for j := e.lo; j < e.hi; j++ {
		for i := 0; i < e.ds.Layout.P; i++ {
			if e.cache == nil || !e.cache.Peek(blockstore.BlockKey{Kind: blockstore.KindInBlock, I: i, J: j}) {
				seqBytes += e.ds.InBlockBytes[i][j]
			}
		}
	}
	return seqBytes
}

// copDecodeBytes sums DualStore.InDecodeBytes over the COP plan: the
// logical and stored bytes of every owned column's compressed in-blocks,
// which a COP iteration counts, cached blocks included.
func (e *Engine) copDecodeBytes() (logical, stored int64) {
	for j := e.lo; j < e.hi; j++ {
		for i := 0; i < e.ds.Layout.P; i++ {
			l, s := e.ds.InDecodeBytes(i, j)
			logical, stored = logical+l, stored+s
		}
	}
	return logical, stored
}
