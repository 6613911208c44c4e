package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/resilience"
	"husgraph/internal/storage"
)

// Config configures a sharded run: the engine configuration every shard
// inherits, plus the shard count and the exchange cost parameters.
type Config struct {
	core.Config
	// Shards is K, the worker-shard count; 0 or 1 runs a single engine
	// (the identity configuration — bit-identical to core.Engine.Run).
	// K must divide the layout's interval count P.
	Shards int
	// ExchangeNsPerByte and ExchangePerMsgNs parameterize the barrier
	// exchange cost model; 0 takes DefaultNsPerByte / DefaultPerMsgNs.
	ExchangeNsPerByte float64
	ExchangePerMsgNs  float64
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
	id  int
	eng *core.Engine
	dev *storage.Device
}

// Coordinator drives K worker shards through the Step lifecycle each
// iteration: commands fan out (every shard plans and starts its I/O
// pipelines immediately), the compute token serializes the accumulate
// sweeps in interval order over the shared S/D arrays, finalization runs
// owner-disjoint and concurrent, and the barrier collects frontier pieces
// and per-shard statistics to merge, price and publish.
type Coordinator struct {
	ds      *blockstore.DualStore
	cfg     Config // core part resolved WithDefaults
	k       int
	workers []*shardWorker
	ex      Exchange
	cost    *CostModel

	// Per-run state the workers read; written before the workers spawn
	// and immutable while they live.
	prog core.Program
	s, d []float64
	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a coordinator over the store. It validates the shard count
// against the layout (K must divide P), rejects a pre-set Config.Owner
// (owners are the coordinator's to assign), and — for sharded
// semi-external runs — checks the whole fleet's pinned residency against
// SemBudgetBytes, since each engine alone would only check its own slice.
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
	resolved := cfg
	resolved.Config = cfg.Config.WithDefaults()
	c := &Coordinator{
		ds:   ds,
		cfg:  resolved,
		k:    k,
		ex:   NewChanExchange(k),
		cost: NewCostModel(cfg.ExchangeNsPerByte, cfg.ExchangePerMsgNs),
	}
	if k == 1 {
		// The identity configuration: the one engine runs unscoped over
		// the original store, exactly as core.New would build it.
		c.workers = []*shardWorker{{id: 0, eng: core.New(ds, resolved.Config), dev: ds.Device()}}
		return c, nil
	}
	per := resolved.Config
	per.OnIteration = nil
	per.CacheBudgetBytes = resolved.CacheBudgetBytes / int64(k)
	span := p / k
	// One message table beside the shared S/D arrays, not one per engine:
	// the token serialises every Exec, and each engine leaves the entries
	// of the intervals it synchronised current.
	msgs := new(core.MessageTable)
	var vertexBytes, indexBytes int64
	for s := 0; s < k; s++ {
		pc := per
		owner, err := core.NewIntervalRange(s*span, (s+1)*span, p)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d owner: %w", s, err)
		}
		pc.Owner = owner
		dev := storage.NewDevice(ds.Device().Profile())
		eng := core.New(ds.Fork(storage.NewDeviceStore(ds.Store(), dev)), pc)
		eng.ShareMessageTable(msgs)
		vb, ib := eng.SemResidentBytes()
		vertexBytes = vb // shared arrays: resident once, not once per shard
		indexBytes += ib
		c.workers = append(c.workers, &shardWorker{id: s, eng: eng, dev: dev})
	}
	if resolved.SemiExternal {
		if b := resolved.SemBudgetBytes; b > 0 && vertexBytes+indexBytes > b {
			return nil, fmt.Errorf(
				"%w: %d shards pin %d bytes resident (%d vertex arrays + %d out-indices) but the budget is %d bytes; raise -sem-budget-mb to at least %d MB or lower -shards",
				core.ErrSemBudget, k, vertexBytes+indexBytes, vertexBytes, indexBytes, b,
				(vertexBytes+indexBytes+(1<<20)-1)>>20)
		}
	}
	return c, nil
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

// RunContext is Run with cancellation, mirroring core.Engine.RunContext:
// the coordinator checks ctx between iterations, checkpoints through shard
// 0's engine, and assembles the combined per-iteration statistics. A
// started iteration always completes its full cycle (commands → token →
// finalize → barrier), so workers are never abandoned mid-protocol.
func (c *Coordinator) RunContext(ctx context.Context, prog core.Program) (*core.Result, error) {
	n := c.ds.Layout.NumVertices
	eng0 := c.workers[0].eng
	values, frontier := prog.Init(eng0.Context())
	if len(values) != n {
		return nil, fmt.Errorf("shard: program %s returned %d values for %d vertices", prog.Name(), len(values), n)
	}
	if frontier.Len() != n {
		return nil, fmt.Errorf("shard: program %s returned frontier over %d vertices, want %d", prog.Name(), frontier.Len(), n)
	}

	s := values
	d := make([]float64, n)
	res := &core.Result{Values: s}
	// Priority programs route through one coordinator-owned bucket router:
	// the merged frontier is parked and popped at the barrier exactly as an
	// unsharded run's own loop would, which keeps every K bit-identical.
	var router *core.BucketRouter
	if pp, ok := prog.(core.PriorityProgram); ok {
		if c.cfg.CheckpointEvery > 0 || c.cfg.Resume {
			return nil, fmt.Errorf("shard: priority program %s cannot run with checkpointing or resume: parked bucket state is not derivable from a value checkpoint", prog.Name())
		}
		router = core.NewBucketRouter(pp, n)
	}
	startRetries := eng0.Retries()
	startHedges := eng0.Hedges()
	startUnused := make([]int64, c.k)
	for i, w := range c.workers {
		startUnused[i] = w.eng.UnusedReadAheadBytes()
	}
	startIter := 0
	if c.cfg.Resume {
		iter, vals, fr, fallbacks, err := eng0.LoadCheckpoint(prog)
		res.Recovery.CheckpointFallbacks = fallbacks
		if err != nil {
			return nil, err
		}
		if vals != nil {
			copy(s, vals)
			frontier = fr
			startIter = iter
			res.Recovery.ResumedIter = iter
		}
	}

	c.prog, c.s, c.d = prog, s, d
	for started, w := range c.workers {
		if err := w.eng.StartRun(); err != nil {
			for _, prev := range c.workers[:started] {
				prev.eng.FinishRun()
			}
			return nil, err
		}
	}
	if router != nil {
		// Seed after StartRun (which resets each engine's bucket state):
		// park the init frontier and open the first bucket, then hand every
		// worker engine the barrier hint. The workers have not spawned yet,
		// so the writes are trivially ordered before any iteration.
		var hint core.BucketHint
		frontier, hint = router.Route(frontier, s)
		for _, w := range c.workers {
			w.eng.SetBucketHint(hint)
		}
	}
	c.quit = make(chan struct{})
	for _, w := range c.workers {
		c.wg.Add(1)
		// Safe off-coordinator: each Step (and its IterStats) is confined
		// to its one worker goroutine and published by value at the
		// barrier; the token order and the barrier give the writes the
		// serial sections the marker demands.
		go c.worker(w) //lint:ignore huslint/barrierstats each shard's Step is goroutine-confined and its IterStats is published by value at the barrier
	}
	finished := false
	finish := func() (events []resilience.DegradeEvent) {
		if finished {
			return
		}
		finished = true
		close(c.quit)
		c.wg.Wait()
		for _, w := range c.workers {
			events = append(events, w.eng.FinishRun()...)
		}
		return
	}
	defer finish()

	for iter := startIter; iter < c.cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			if c.cfg.CheckpointEvery > 0 && iter > startIter {
				if werr := eng0.WriteCheckpoint(prog, iter, s, frontier); werr == nil {
					res.Recovery.CheckpointsWritten++
				}
			}
			return nil, fmt.Errorf("shard: %s cancelled before iteration %d: %w", prog.Name(), iter, err)
		}
		if frontier.Empty() {
			res.Converged = true
			break
		}

		model := core.ModelHybrid // K=1: the engine's own predictor decides
		var header core.IterStats
		if c.k > 1 {
			model = c.arbitrate(frontier, &header)
		}

		retBefore, hedBefore := eng0.Retries(), eng0.Hedges()
		decBefore := c.ds.DecodeStats()

		next := bitset.NewFrontier(n)
		pieces := make([]*bitset.Frontier, c.k)
		if c.k == 1 {
			// The single shard's activations land organically in next —
			// no merge, no Reindex, the engine-identical frontier state.
			pieces[0] = next
		} else {
			for i := range pieces {
				pieces[i] = bitset.NewFrontier(n)
			}
		}
		if iter == startIter || prog.Kind() != core.Monotone {
			// As in core.Engine.RunContext: a monotone iteration leaves
			// D == S, so only the run's first one has to copy.
			core.InitAccumulators(prog.Kind(), s, d)
		}
		for i, w := range c.workers {
			c.ex.SendCmd(w.id, Cmd{Iter: iter, Model: model, Frontier: frontier, Piece: pieces[i]})
		}
		c.ex.InjectToken(Token{Iter: iter})
		<-c.ex.TokenBack()
		c.ex.Finalize(iter)
		msgs := make([]BarrierMsg, c.k)
		for i := 0; i < c.k; i++ {
			m := <-c.ex.Barrier()
			msgs[m.Shard] = m
		}
		for i := range msgs { // deterministic: the lowest erring shard wins
			if msgs[i].Err != nil {
				return nil, &core.IterError{Program: prog.Name(), Iter: iter, Model: msgs[i].Stats.Model, Err: msgs[i].Err}
			}
		}

		var st core.IterStats
		if c.k == 1 {
			st = msgs[0].Stats
		} else {
			counts := make([]int, c.k)
			for i, p := range pieces {
				counts[i] = p.Count()
			}
			for _, p := range pieces {
				next.MergeAtomic(p)
			}
			next.Reindex()
			st = c.combine(iter, frontier, header, msgs, counts, next.Count())
			st.Retries = eng0.Retries() - retBefore
			st.Hedges = eng0.Hedges() - hedBefore
			decDelta := c.ds.DecodeStats().Sub(decBefore)
			st.DecodeTime = decDelta.Time
			st.DecodedBytes = decDelta.DecodedBytes()
			st.CompressedBytes = decDelta.CompressedBytes
			st.DecodeModeled = core.ModeledDecodeTime(decDelta.VarintBytes, decDelta.RLEBytes, c.cfg.Threads)
		}
		for i := range msgs {
			res.Recovery.DegradeEvents = append(res.Recovery.DegradeEvents, msgs[i].Events...)
		}
		res.Iterations = append(res.Iterations, st)
		if c.cfg.OnIteration != nil {
			c.cfg.OnIteration(st)
		}
		if router != nil {
			// Route the one merged (and at K>1, reindexed) frontier and
			// republish the hint; the workers are parked in their select
			// until the next command, so the coordinator owns the engines'
			// bucket fields here and the command channel publishes them.
			var hint core.BucketHint
			frontier, hint = router.Route(next, s)
			for _, w := range c.workers {
				w.eng.SetBucketHint(hint)
			}
		} else {
			frontier = next
		}

		if c.cfg.CheckpointEvery > 0 && (iter+1)%c.cfg.CheckpointEvery == 0 {
			if err := eng0.WriteCheckpoint(prog, iter+1, s, frontier); err != nil {
				return nil, fmt.Errorf("shard: checkpoint at iteration %d: %w", iter+1, err)
			}
			res.Recovery.CheckpointsWritten++
		}

		// Tolerance never terminates a bucketed run: a quiescent iteration
		// only settles the current bucket; convergence is structural (the
		// router runs out of live vertices and routes an empty frontier).
		if router == nil && prog.Kind() != core.Monotone && c.cfg.Tolerance > 0 && st.MaxDelta < c.cfg.Tolerance {
			res.Converged = true
			break
		}
	}
	if frontier != nil && frontier.Empty() {
		res.Converged = true
	}
	events := finish()
	lastIter := startIter
	if cnt := len(res.Iterations); cnt > 0 {
		lastIter = res.Iterations[cnt-1].Iter
	}
	for _, ev := range events {
		ev.Iter = lastIter
		res.Recovery.DegradeEvents = append(res.Recovery.DegradeEvents, ev)
	}
	res.Values = s
	res.Recovery.Retries = eng0.Retries() - startRetries
	res.Recovery.Hedges = eng0.Hedges() - startHedges
	var cacheSum blockstore.CacheStats
	haveCache := false
	for _, w := range c.workers {
		if cache := w.eng.Cache(); cache != nil {
			haveCache = true
			one := cache.Stats()
			cacheSum.Hits += one.Hits
			cacheSum.Misses += one.Misses
			cacheSum.RunHits += one.RunHits
			cacheSum.RunMisses += one.RunMisses
			cacheSum.Evictions += one.Evictions
			cacheSum.BytesEvicted += one.BytesEvicted
			cacheSum.Promotions += one.Promotions
			cacheSum.AdmissionRejected += one.AdmissionRejected
			cacheSum.Entries += one.Entries
			cacheSum.BytesUsed += one.BytesUsed
			cacheSum.Budget += one.Budget
		}
	}
	if haveCache {
		res.Cache = cacheSum
	}
	for i, w := range c.workers {
		res.PrefetchUnusedBytes += w.eng.UnusedReadAheadBytes() - startUnused[i]
	}
	return res, nil
}

// arbitrate chooses one global model for the coming iteration, mirroring
// the unsharded predictor's decision exactly: a forced model wins, the α
// shortcut applies to the global frontier, and otherwise the per-shard §3.4
// cost estimates are summed — C(rop) and C(cop) decompose over disjoint
// owners — with the modeled exchange term added to both candidates (the
// barrier ships the same activations either way, so the communication term
// documents the cost without flipping the unsharded choice).
func (c *Coordinator) arbitrate(frontier *bitset.Frontier, st *core.IterStats) core.Model {
	if c.cfg.Model != core.ModelHybrid {
		return c.cfg.Model
	}
	n := c.ds.Layout.NumVertices
	if float64(frontier.Count()) > c.cfg.Alpha*float64(n) {
		return core.ModelCOP
	}
	var crop, ccop time.Duration
	for _, w := range c.workers {
		r, p := w.eng.PredictCosts(frontier)
		crop += r
		ccop += p
	}
	exch := c.cost.PredictNext(frontier.Count(), n, c.k)
	crop += exch
	ccop += exch
	st.PredictedROP, st.PredictedCOP = crop, ccop
	if crop <= ccop {
		return core.ModelROP
	}
	return core.ModelCOP
}

// combine folds K per-shard iteration reports into the run's combined
// IterStats. Capacity-like quantities (I/O traffic, modeled compute and
// decode work, cache counters) sum; wall-like quantities
// (IOTime, ComputeTime, PrefetchStall, per-shard Runtime) take the maximum,
// modeling K devices serving disjoint ranges in parallel — so the combined
// IOTime is deliberately max-of-shards rather than IO.SimIO, which carries
// the summed traffic. Runtime is the slowest shard's wall plus the modeled
// barrier merge and exchange. Retries/Hedges and the decode fields are
// filled by the caller from coordinator-level snapshots of the fork-shared
// counters (the per-shard deltas overlap while K windows run concurrently;
// see core.ShardIterStats).
func (c *Coordinator) combine(iter int, frontier *bitset.Frontier, header core.IterStats, msgs []BarrierMsg, pieceCounts []int, mergedCount int) core.IterStats {
	n := c.ds.Layout.NumVertices
	st := core.IterStats{
		Iter:           iter,
		ActiveVertices: frontier.Count(),
		Model:          msgs[0].Stats.Model,
		PredictedROP:   header.PredictedROP,
		PredictedCOP:   header.PredictedCOP,
		// Every shard engine got the same barrier hint, so shard 0's
		// bucket fields are the run's.
		Bucketed:      msgs[0].Stats.Bucketed,
		BucketPri:     msgs[0].Stats.BucketPri,
		BucketPending: msgs[0].Stats.BucketPending,
	}
	var maxRuntime, sumRuntime time.Duration
	for i := range msgs {
		ss := msgs[i].Stats
		st.ActiveEdges += ss.ActiveEdges
		st.IO = st.IO.Add(ss.IO)
		if ss.IOTime > st.IOTime {
			st.IOTime = ss.IOTime
		}
		if ss.ComputeTime > st.ComputeTime {
			st.ComputeTime = ss.ComputeTime
		}
		st.ComputeModeled += ss.ComputeModeled
		if ss.PrefetchStall > st.PrefetchStall {
			st.PrefetchStall = ss.PrefetchStall
		}
		if ss.MaxDelta > st.MaxDelta {
			st.MaxDelta = ss.MaxDelta
		}
		if ss.DegradeLevel > st.DegradeLevel {
			st.DegradeLevel = ss.DegradeLevel
		}
		st.CacheHits += ss.CacheHits
		st.CacheMisses += ss.CacheMisses
		st.CacheEvictions += ss.CacheEvictions
		st.PrefetchUnusedBytes += ss.PrefetchUnusedBytes
		if ss.Runtime > maxRuntime {
			maxRuntime = ss.Runtime
		}
		sumRuntime += ss.Runtime
		st.Shards = append(st.Shards, core.ShardIterStats{Shard: msgs[i].Shard, Stats: ss})
	}
	plan := c.cost.Choose(pieceCounts, mergedCount, n)
	st.ExchangeBytes = plan.Bytes
	st.ExchangeMsgs = plan.Msgs
	st.ExchangePush = plan.Push
	st.ExchangeTime = plan.Time
	st.MergeTime = MergedFrontierCost(n, c.k)
	st.Runtime = maxRuntime + st.ExchangeTime + st.MergeTime
	if sumRuntime > 0 {
		st.ShardSkew = float64(maxRuntime) * float64(c.k) / float64(sumRuntime)
	}
	return st
}

// worker is one shard's goroutine: it runs iteration commands until the
// coordinator closes quit. The coordinator's cycle discipline guarantees a
// command, once received, always sees its token, finalize release and
// barrier slot, so the only place the worker parks between iterations is
// this select.
func (c *Coordinator) worker(w *shardWorker) {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			return
		case cmd := <-c.ex.Cmds(w.id):
			c.runShardIter(w, cmd)
		}
	}
}

// runShardIter runs one iteration on one shard: plan and start I/O
// immediately (BeginIter — all shards overlap here), execute the
// accumulate sweep while holding the compute token (interval order =
// token order, which is what keeps K>1 bit-identical to K=1), finalize
// owner-disjoint once every shard's sweep is done, and publish the piece
// and statistics at the barrier.
func (c *Coordinator) runShardIter(w *shardWorker, cmd Cmd) {
	step := w.eng.BeginIter(c.prog, cmd.Iter, cmd.Model, cmd.Frontier, cmd.Piece)
	tok := <-c.ex.TokenIn(w.id)
	execErr := step.Exec(c.s, c.d)
	c.ex.PassToken(w.id, tok)
	<-c.ex.FinalizeIn(w.id)
	if execErr == nil {
		step.FinalizeOwned(c.s, c.d)
	}
	st, err := step.End()
	c.ex.SendBarrier(BarrierMsg{Iter: cmd.Iter, Shard: w.id, Piece: cmd.Piece, Stats: st, Events: step.Events, Err: err})
}
