package core

import (
	"context"
	"sync/atomic"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/ioplan"
	"husgraph/internal/storage"
)

// Engine runs vertex programs over a dual-block store with the hybrid
// update strategy.
type Engine struct {
	ds  *blockstore.DualStore
	cfg Config
	ctx *Context

	// owned lists the intervals this engine plans, predicts and executes
	// (ascending); ownsAll short-circuits the scoping for the classic
	// single-engine configuration. Resolved from Config.Owner at New.
	owned   []int
	ownsAll bool

	// spans/runs hold ROP's per-destination-block range buffers and touched
	// whether the current row pushed into destination interval j (worker j
	// owns index j during a row, so no locking is needed).
	spans   [][]span
	runs    [][]run
	touched []bool

	// cop is the COP sweep's edge-kernel state, reused block after block;
	// msgs is the per-source message table its fast path reads — the
	// engine's own unless a coordinator shared one (kernel.go).
	cop  copKernel
	msgs *MessageTable

	// cache is the budgeted hot-block cache shared by ROP and COP
	// pipelines across iterations; nil when Config.CacheBudgetBytes is 0.
	// prefetchUnused accumulates bytes read ahead but never consumed.
	cache          *blockstore.BlockCache
	prefetchUnused atomic.Int64

	// sched opens each iteration's prefetch window over its read plan.
	sched *ioplan.Scheduler

	// live holds the extents of the out-blocks of the owned rows
	// (ioplan.LiveBlocks) for liveOf, the frontier they were recorded for.
	// The predictor records the frontier it prices; BeginIter reuses that
	// record for the same frontier, or makes it, and the step's plan,
	// prefetcher, executor and compute model read it; End forgets liveOf, so
	// a record never outlives its iteration.
	live   []blockstore.Extent
	liveOf *bitset.Frontier

	// ckptSlot is the next checkpoint generation slot (0 or 1) to write;
	// loadCheckpoint points it away from the generation it resumed from.
	ckptSlot int

	// Bucketed-execution hint, set between iterations (SetBucketHint, from
	// Drive's router) before BeginIter: bucketed marks the coming iteration
	// as bucket-driven, bucketPri/bucketPending describe its bucket.
	bucketed      bool
	bucketPri     int64
	bucketPending int
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
		cfg: cfg.withDefaults(),
		ctx: &Context{
			NumVertices: ds.Layout.NumVertices,
			OutDegrees:  ds.OutDegrees,
			InDegrees:   ds.InDegrees,
		},
		spans:   make([][]span, ds.Layout.P),
		runs:    make([][]run, ds.Layout.P),
		touched: make([]bool, ds.Layout.P),
		msgs:    new(MessageTable),
	}
	owned, ownsAll, err := resolveOwner(e.cfg.Owner, ds.Layout.P)
	if err != nil {
		// An invalid owner is a programmer error on the sharding layer's
		// side (the CLI validates -shards before any engine exists).
		panic(err)
	}
	e.owned, e.ownsAll = owned, ownsAll
	if e.cfg.CacheBudgetBytes > 0 {
		e.cache = blockstore.NewBlockCache(e.cfg.CacheBudgetBytes)
	}
	ds.SetRetryPolicy(blockstore.RetryPolicy{
		MaxRetries: e.cfg.ReadRetries,
		Backoff:    e.cfg.RetryBackoff,
		Jitter:     retryJitter,
	})
	ds.SetHedgePolicy(blockstore.HedgePolicy{Deadline: e.cfg.ReadDeadline})
	e.sched = ioplan.NewScheduler(ds, e.cache, ioplan.Options{Depth: e.cfg.PrefetchDepth})
	return e
}

// ownedOrNil returns nil for the all-intervals owner — letting planners
// take their unscoped path — and the owned interval list otherwise.
func (e *Engine) ownedOrNil() []int {
	if e.ownsAll {
		return nil
	}
	return e.owned
}

// ownedActive counts the active vertices in owned intervals.
func (e *Engine) ownedActive(f *bitset.Frontier) int {
	if e.ownsAll {
		return f.Count()
	}
	l := e.ds.Layout
	c := 0
	for _, i := range e.owned {
		lo, hi := l.Bounds(i)
		c += f.CountIn(lo, hi)
	}
	return c
}

// ownedVertexWork returns the per-vertex serial work term of one iteration
// for this engine: every vertex of every owned interval (the full vertex
// count for the unscoped engine — finalization sweeps all of them).
func (e *Engine) ownedVertexWork() int64 {
	if e.ownsAll {
		return int64(e.ds.Layout.NumVertices)
	}
	var t int64
	for _, i := range e.owned {
		t += int64(e.ds.Layout.Size(i))
	}
	return t
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

// Totals implements Runner. Retries and Hedges are the store's counters,
// shared across forks of the same DualStore lineage.
func (e *Engine) Totals() RunTotals {
	t := RunTotals{
		Retries:             e.ds.Retries(),
		Hedges:              e.ds.Hedges(),
		PrefetchUnusedBytes: e.prefetchUnused.Load(),
	}
	if e.cache != nil {
		t.Cache = e.cache.Stats()
	}
	return t
}

// Cache returns the engine's block cache, or nil when caching is disabled.
func (e *Engine) Cache() *blockstore.BlockCache { return e.cache }

// SetBucketHint implements Runner: it installs the bucket state for the
// coming iteration (see the bucketed fields on Engine). Drive calls it
// between iterations; the shard coordinator passes it on to every shard's
// engine, and the go statement that starts a shard's BeginIter publishes
// the fields to it.
func (e *Engine) SetBucketHint(h BucketHint) {
	e.bucketed = true
	e.bucketPri = h.Pri
	e.bucketPending = h.Pending
}

// loadOutRun loads byte range [s, end) of out-block(i,j), serving it from
// the run-granular cache when possible. Device-loaded runs are copied into
// the cache; when a block's cumulative run reads cross the promotion
// density, its whole payload is read once sequentially and cached under
// KindOutBlock, making every later run a memory slice.
func (e *Engine) loadOutRun(i, j int, s, end uint32, sc *blockstore.Scratch) ([]byte, error) {
	if e.cache == nil {
		return e.ds.LoadOutRunScratch(i, j, s, end, sc)
	}
	if data, ok := e.cache.GetRun(i, j, s, end); ok {
		return data, nil
	}
	buf, err := e.ds.LoadOutRunScratch(i, j, s, end, sc)
	if err != nil {
		return nil, err
	}
	if promote := e.cache.PutRun(i, j, s, end, append([]byte(nil), buf...), e.ds.OutBlockBytes(i, j)); promote {
		// Promotion is an optimization read: a failure here just leaves
		// runs being served from the device (the claim is one-shot, so a
		// faulty block is not re-attempted every run).
		if payload, perr := e.ds.LoadOutPayload(i, j); perr == nil {
			e.cache.Put(blockstore.BlockKey{Kind: blockstore.KindOutBlock, I: i, J: j}, &blockstore.CachedBlock{Payload: payload})
		}
	}
	return buf, nil
}

// activeOutEdges sums the out-degrees of the frontier's vertices in owned
// intervals: the paper's "active edges" metric (Fig. 1) and the Σ d_v term
// of C_rop, scoped to what this engine will actually push.
func (e *Engine) activeOutEdges(f *bitset.Frontier) int64 {
	var t int64
	deg := e.ds.OutDegrees
	if e.ownsAll {
		f.Range(func(v int) bool {
			t += int64(deg[v])
			return true
		})
		return t
	}
	l := e.ds.Layout
	for _, i := range e.owned {
		lo, hi := l.Bounds(i)
		f.RangeIn(lo, hi, func(v int) bool {
			t += int64(deg[v])
			return true
		})
	}
	return t
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

// predict estimates C_rop and C_cop for the current frontier using the
// device profile's two parameters. It is the paper's §3.4 model with the
// single T_random divisor expanded into the device's per-access latency
// plus transfer bandwidth (the quantity fio would have measured), and with
// the executor's access coalescing mirrored: when a block's active ranges
// sit closer together than the device's coalesce gap, loading it
// degenerates into one scan instead of per-vertex seeks.
func (e *Engine) predict(f *bitset.Frontier) (crop, ccop time.Duration) {
	// C_cop has a decode-cost term beside T_sequential: the logical bytes
	// the column scan would decompress, priced at the rate DecodeModeled
	// charges them. Zero for stores with no compressed blobs; ROP reads the
	// row view, which is stored raw, so C_rop has none.
	crop, _ = e.ropCost(f)
	copBytes, copDecBytes := e.copScanBytes()
	ccop = e.ds.Device().Profile().SeqTime(copBytes) + time.Duration(copDecBytes*defaultDecodeNsPerByte(e.cfg.Threads))
	return crop, ccop
}

// markLive records the extents of the owned rows' out-blocks for f in
// e.live.
func (e *Engine) markLive(f *bitset.Frontier) []blockstore.Extent {
	e.live = ioplan.LiveBlocks(e.ds, f, e.ownedOrNil(), e.live)
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

// ropCost is what predict prices a ROP iteration at, over the live blocks
// of the owned rows only (markLive), the ones the executor visits: the
// random reads of the active sections and, per live block, the one range
// read of the out-index pages its extent spans (OutIndexSpan). pageBytes
// are those page spans, one read each. Out-indices resident in the block
// cache are served from memory and priced at zero. The row view is stored
// raw, so nothing is read whole or decoded; and the vertex arrays are
// resident, so no vertex byte is priced (DESIGN.md §2a).
func (e *Engine) ropCost(f *bitset.Frontier) (random time.Duration, pageBytes int64) {
	l := e.ds.Layout
	prof := e.ds.Device().Profile()
	coalesce := prof.CoalesceBytes()
	deg := e.ds.OutDegrees
	live := e.markLive(f)
	var pageReads int64
	for _, i := range e.owned {
		lo, hi := l.Bounds(i)
		k := int64(f.CountIn(lo, hi))
		if k == 0 {
			continue
		}
		// Active out-edge bytes of this row (exact).
		var rowActive int64
		f.RangeIn(lo, hi, func(v int) bool {
			rowActive += int64(deg[v])
			return true
		})
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
	random += prof.RandTime(pageBytes, pageReads)
	return random, pageBytes
}

// copScanBytes is what predict prices a COP iteration at: the sequential
// bytes streaming every owned column's in-blocks and in-indices moves, and
// the logical bytes those blobs decompress into. In-blocks resident in the
// block cache skip the device entirely, so they are priced at zero — this
// is what lets the predictor keep preferring COP once the hot columns have
// been cached.
func (e *Engine) copScanBytes() (seqBytes int64, decBytes float64) {
	l := e.ds.Layout
	step := int64(blockstore.RawRecordBytes(e.ds.Weighted))
	for _, j := range e.owned {
		for i := 0; i < l.P; i++ {
			if e.cache != nil && e.cache.Peek(blockstore.BlockKey{Kind: blockstore.KindInBlock, I: i, J: j}) {
				continue // cached blocks are already decoded, too
			}
			ib := e.ds.InIndexBytes(i, j)
			seqBytes += e.ds.InBlockBytes[i][j] + ib
			if e.ds.InCodec(i, j) != blockstore.CodecNone {
				decBytes += float64(e.ds.BlockEdgeCount[i][j] * step)
			}
			if rawIdx := e.ds.InIndexEntries[i][j] * blockstore.InIndexEntryBytes; ib < rawIdx {
				decBytes += float64(rawIdx) // stored compressed: decodes to the fixed-width entries
			}
		}
	}
	return seqBytes, decBytes
}
