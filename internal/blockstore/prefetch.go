package blockstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/storage"
)

// Async block prefetch pipeline.
//
// The engine's traversal order is statically known once an iteration's
// frontier is fixed: COP streams in-blocks column-major, ROP touches the
// live out-blocks of active rows row-major. A Prefetcher takes that schedule
// up front and overlaps I/O with compute: while the engine processes block
// k, a small worker pool (PartitionedVC-style) loads blocks k+1.. into
// pooled Scratch buffers — or serves them from the BlockCache — and
// delivers each result on its own channel: a COP in-block as stored, from
// the device or the cache (a compressed block for the COP kernel to fold as
// it decodes it), or a ROP out-block's active sections (loadSections) —
// every read of an iteration.
//
// Read-ahead is bounded by a token semaphore: at most `depth` results exist
// between load-start and Take or Release, so memory stays at O(depth) blocks,
// plus one per consumer, however long the schedule. Transient-fault
// retry/backoff runs inside the workers (they call the DualStore read paths,
// which own the retry policy), as on the synchronous path.
//
// Consumption modes:
//
//   - Next() — strict schedule order, single consumer (COP's column scan).
//   - Take(key) — by key, from concurrent consumers (ROP's row workers, who
//     push a block's sections while the workers read ahead: Take hands the
//     token back as it delivers). Safe whenever the consumers collectively
//     drain a contiguous window of the schedule (e.g. all blocks of the
//     current row): workers claim requests in schedule order, so a Take far
//     ahead of the oldest untaken entry completes once earlier ones are.
//
// On a load error the prefetcher aborts: the failing result carries the
// error, and every request not yet claimed is failed with the same root
// cause instead of being read — so a permanent fault surfaces as the
// iteration error on every waiting consumer rather than a hang.
type Prefetcher struct {
	ds    *DualStore
	cache *BlockCache
	// extents, when non-nil, holds each block's Extent at i·P+j for frontier:
	// an out-index is then loaded as its extent's page span and delivers its
	// block's active sections (loadSections); without extents, whole.
	extents  []Extent
	frontier *bitset.Frontier
	// window is the cache window admitPlan opened for this plan, and
	// admitted the keys it reserved room for.
	window   int64
	admitted []BlockKey

	// reqs is the schedule's request slab — one allocation for every
	// entry's bookkeeping and result storage; byKey points into it.
	reqs  []prefetchReq
	byKey map[BlockKey]*prefetchReq

	sem  chan struct{} // read-ahead tokens; nil in inline mode
	quit chan struct{}
	wg   sync.WaitGroup
	next atomic.Int64 // index of the next request to claim

	errMu    sync.Mutex
	firstErr error

	nextConsume int // Next() cursor (single consumer)
	unused      atomic.Int64
	stallNanos  atomic.Int64
	closed      bool
}

type prefetchReq struct {
	key BlockKey
	// ready holds one token once res is set. Receiving the token is what
	// takes the delivery, so exactly one of a consumer and Close gets each
	// result; whoever takes it may put another back (Close leaves an abort
	// result behind for a consumer that arrives late).
	ready chan struct{}
	res   *PrefetchResult
	// loaded is res's storage for a successful load: the result lives as
	// long as the slab, which the consumer's pointer keeps reachable.
	loaded   PrefetchResult
	consumed atomic.Bool
	// admit marks a planned miss the cache admitted: its load is copied
	// into the cache, filling the room reserved for it.
	admit bool
}

// deliver publishes res as req's outcome. Only the goroutine holding the
// request (its worker, or Close once the workers are gone) calls it, while
// ready is empty, so the send never blocks.
func (req *prefetchReq) deliver(res *PrefetchResult) {
	req.res = res
	req.ready <- struct{}{}
}

// PrefetchResult is one delivered block: for an in-block its Payload as
// stored, in the codec the meta records (DualStore.InCodec), which COP cuts
// into tiles (DualStore.InTiles); for an out-index Payload alone — the (Size(i)+1)·4 bytes of its offsets (see
// CachedBlock), or of a page-span load the bytes from offset Base on — with
// the block's active Sections. Views alias either a pooled Scratch
// (returned by Release) or an immutable cache entry; they are read-only and
// valid until Release.
type PrefetchResult struct {
	Key BlockKey
	Err error

	Payload []byte
	// Base is the stored payload offset Payload starts at: nonzero only for
	// an out-index loaded as a page span that does not start at page 0.
	Base int
	// Cached reports the block's own blob was served from the block cache.
	Cached bool
	// Sections are an out-block's active sections, in source order.
	Sections []Section

	runBytes int64 // record-run bytes read from the device
	sc       *Scratch
	pf       *Prefetcher
	token    bool // holds a read-ahead token, handed back by Take or Release
}

// Section is one active source's out-edges in a ROP result: V the source
// and Recs its out-block records (OutRec), each naming a destination local
// to the block's destination interval, sliced from a record run.
type Section struct {
	V    int32
	Recs []byte
	s, e uint32 // the section's byte range in the out-block's payload
}

// run is a coalesced byte range of an out-block, read with one access.
type run struct{ s, e uint32 }

// Release returns the result's buffers to the scratch pool and hands its
// read-ahead token, unless Take already did, back to the workers. Call it
// once the block's data is no longer needed; the views are invalid
// afterwards. Safe to call more than once.
func (r *PrefetchResult) Release() {
	pf := r.pf
	if pf == nil {
		return
	}
	r.pf = nil
	if r.sc != nil {
		PutScratch(r.sc)
		r.sc = nil
	}
	if r.token {
		pf.sem <- struct{}{}
	}
}

// dataBytes is the stored bytes the load read, for unused-prefetch
// accounting. A cache hit read no blob, only its runs.
func (r *PrefetchResult) dataBytes() int64 {
	if r.Cached || r.Err != nil {
		return r.runBytes
	}
	return r.runBytes + int64(len(r.Payload))
}

// NewPrefetcher starts a prefetch pipeline over schedule. extents, when
// non-nil, is the P·P grid of block extents a ROP iteration pushes over
// (core.Engine.markLive), taken for frontier, which must then be non-nil:
// each scheduled out-index is loaded as the page span of its block's extent
// and delivers its block's active Sections. depth is the worker count and
// read-ahead bound, capped at the schedule's length; depth <= 0
// runs inline — Next/Take perform the load synchronously on the calling
// goroutine (the cache, when non-nil, is still consulted), which is the
// prefetch-disabled configuration sharing one code path with the async one.
// cache may be nil; when it is not, the pipeline opens the cache's next
// window and asks it, in schedule order, which of the schedule's misses to
// keep — only those are copied into it.
//
// Close must be called when done (normally deferred), even after an error.
func (d *DualStore) NewPrefetcher(schedule []BlockKey, extents []Extent, frontier *bitset.Frontier, depth int, cache *BlockCache) *Prefetcher {
	p := &Prefetcher{
		cache:    cache,
		extents:  extents,
		frontier: frontier,
		reqs:     make([]prefetchReq, len(schedule)),
		byKey:    make(map[BlockKey]*prefetchReq, len(schedule)),
		quit:     make(chan struct{}),
	}
	// More workers than entries would only wait for tokens no entry needs.
	depth = min(depth, len(schedule))
	// Workers read through a view whose retry backoff aborts when quit
	// closes, so Close is never delayed by a worker mid-backoff-ladder.
	p.ds = d.WithAbort(p.quit)
	for i, key := range schedule {
		req := &p.reqs[i]
		req.key = key
		if depth > 0 {
			req.ready = make(chan struct{}, 1) // one delivery per request
		}
		p.byKey[key] = req
	}
	if cache != nil {
		sizes := make([]int64, len(schedule))
		for n, key := range schedule {
			sizes[n] = p.entryBytes(key)
		}
		p.window, p.admitted = cache.admitPlan(schedule, sizes)
		for _, key := range p.admitted {
			p.byKey[key].admit = true
		}
	}
	if depth > 0 {
		p.sem = make(chan struct{}, depth)
		for w := 0; w < depth; w++ { // a token and a worker per unit of depth
			p.sem <- struct{}{}
			p.wg.Add(1)
			go p.worker()
		}
	}
	return p
}

// worker claims schedule entries in order, loads them, and delivers.
func (p *Prefetcher) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.sem:
		}
		select { // don't start new loads once Close began
		case <-p.quit:
			return
		default:
		}
		i := int(p.next.Add(1)) - 1
		if i >= len(p.reqs) {
			return
		}
		req := &p.reqs[i]
		var res *PrefetchResult
		if err := p.abortErr(); err != nil {
			// Pipeline aborted: fail the request with the root cause
			// instead of issuing more I/O.
			res = &PrefetchResult{Key: req.key, Err: err}
		} else {
			res = p.load(req)
			if res.Err != nil {
				p.setAbort(res.Err)
			}
		}
		req.deliver(res)
		if res.Err != nil {
			// Error results hold no buffers and no token (Release is a
			// no-op on them): hand the token back here so the pipeline
			// keeps draining and every blocked consumer receives the root
			// cause instead of deadlocking on a token a failed consumer
			// never returned. The send cannot block: sem has capacity depth
			// and this returns a token just taken.
			p.sem <- struct{}{}
		}
	}
}

// entryBytes is what the cache will be charged for key's entry, read off the
// meta: an in-block's stored bytes (InBlockBytes), or a whole
// out-index. It is -1 for a page-span load of part of an out-index, which is
// not cacheable; a cached out-index is always whole, so it serves any extent.
func (p *Prefetcher) entryBytes(key BlockKey) int64 {
	d := p.ds
	switch key.Kind {
	case KindInBlock:
		return d.InBlockBytes[key.I][key.J]
	case KindOutIndex:
		whole := d.OutIndexBytes(key.I, key.J)
		if p.extents != nil {
			if off, end := d.OutIndexSpan(key.I, key.J, p.extents[key.I*d.Layout.P+key.J]); off != 0 || end != whole {
				return -1
			}
		}
		return whole
	}
	return -1
}

// load performs one block load: cache lookup, then the store's verified,
// retried read path, then — for a miss the cache admitted — a copy into the
// cache, so later iterations hit; then the hand-over, the same for bytes read
// or cached (handOver).
func (p *Prefetcher) load(req *prefetchReq) *PrefetchResult {
	key, res := req.key, &req.loaded
	*res = PrefetchResult{Key: key, pf: p, token: p.sem != nil}
	if p.cache != nil {
		if blk, ok := p.cache.Get(key); ok {
			res.Cached, res.Payload = true, blk.Payload
		}
	}
	// Ownership of the scratch transfers to the result: Release or Close
	// return it to the pool exactly once.
	var err error
	if !res.Cached {
		res.sc = GetScratch()
		err = p.read(req, res)
	}
	if err == nil {
		err = p.handOver(res)
	}
	if err != nil {
		if res.sc != nil {
			PutScratch(res.sc)
		}
		*res = PrefetchResult{Key: key, Err: err}
	}
	return res
}

// read loads req's blob as stored into res.sc, and copies an admitted miss
// into the cache, serving the cached copy.
func (p *Prefetcher) read(req *prefetchReq, res *PrefetchResult) error {
	key, sc := req.key, res.sc
	var err error
	switch key.Kind {
	case KindOutIndex:
		if p.extents == nil {
			res.Payload, err = p.ds.LoadOutIndexScratch(key.I, key.J, sc)
			break
		}
		x := p.extents[key.I*p.ds.Layout.P+key.J]
		res.Payload, res.Base, err = p.ds.LoadOutIndexSpanScratch(key.I, key.J, x, sc)
	case KindInBlock:
		res.Payload, err = p.ds.LoadInBlockScratch(key.I, key.J, sc)
	default:
		err = fmt.Errorf("blockstore: prefetch: unknown block kind %d", key.Kind)
	}
	if err != nil || !req.admit {
		return err
	}
	blk := &CachedBlock{Payload: append([]byte(nil), res.Payload...)}
	if p.cache.Put(key, blk) {
		// Serve the immutable cached copy; the scratch is free now.
		res.Payload = blk.Payload
		PutScratch(sc)
		res.sc = nil
	}
	return nil
}

// handOver turns res's bytes, read or cached, into what the kernels
// consume: in a window over extents, an out-index's active sections. An
// in-block is handed over as stored; COP checks its tiles as it folds them.
func (p *Prefetcher) handOver(res *PrefetchResult) error {
	if res.Key.Kind != KindOutIndex || p.extents == nil {
		return nil
	}
	if res.sc == nil {
		res.sc = GetScratch()
	}
	return p.loadSections(res)
}

// loadSections fills res.Sections from the out-index in res.Payload (from
// byte res.Base on): one section per source of frontier ∧ the block's source
// mask, ascending. The loaders checked only the index's length or its pages'
// CRCs, so every section is checked before any is read: it starts at or
// after the previous one's end, ends inside the block and cuts it at whole
// records, or a run would slice out of bounds and the push read past a
// section; and it is nonempty, or mask and index disagree. Sections closer
// than the device's coalesce gap share a run, and each run is one read into
// res.sc.raw or a slice of the run cache (loadRun).
func (p *Prefetcher) loadSections(res *PrefetchResult) error {
	d, sc := p.ds, res.sc
	i, j := res.Key.I, res.Key.J
	lo, _ := d.Layout.Bounds(i)
	x := p.extents[i*d.Layout.P+j]
	secs := sc.secs[:0]
	w0, w1 := int(x.First)/64, (int(x.End)+63)/64
	p.frontier.RangeMasked(lo+64*w0, d.SourceMasks[i][j][w0:w1], func(v int) bool {
		secs = append(secs, Section{V: int32(v)})
		return true
	})

	coalesce := d.Device().Profile().CoalesceBytes()
	step := uint32(d.OutRecordBytes())
	blockBytes := d.OutBlockBytes(i, j)
	runs := sc.runs[:0]
	var prevEnd, total uint32
	for k := range secs {
		at := 4*(int(secs[k].V)-lo) - res.Base
		rs := binary.LittleEndian.Uint32(res.Payload[at:])
		re := binary.LittleEndian.Uint32(res.Payload[at+4:])
		if rs < prevEnd || re <= rs || int64(re) > blockBytes || rs%step != 0 || re%step != 0 {
			return fmt.Errorf("blockstore: out-index (%d,%d) vertex %d: section [%d, %d) after byte %d of a %d-byte block of %d-byte records, for a source the meta's mask marks live: %w", i, j, secs[k].V, rs, re, prevEnd, blockBytes, step, storage.ErrCorrupt)
		}
		prevEnd = re
		secs[k].s, secs[k].e = rs, re
		if n := len(runs); n > 0 && int64(rs-runs[n-1].e) <= coalesce {
			total += re - runs[n-1].e
			runs[n-1].e = re
		} else {
			total += re - rs
			runs = append(runs, run{s: rs, e: re})
		}
	}

	// Every run gets its own stretch of one buffer, so the sections of the
	// runs read before it stay valid.
	sc.raw = slices.Grow(sc.raw[:0], int(total))
	buf, k := sc.raw[:total], 0
	for _, r := range runs {
		n := int(r.e - r.s)
		data, err := p.loadRun(res, r, buf[:0:n])
		if err != nil {
			return err
		}
		buf = buf[n:]
		for ; k < len(secs) && secs[k].e <= r.e; k++ {
			secs[k].Recs = data[secs[k].s-r.s : secs[k].e-r.s]
		}
	}
	res.Sections, sc.secs, sc.runs = secs, secs, runs // retain grown capacity
	return nil
}

// loadRun returns run r of out-block res.Key from the run cache, or reads it
// into buf. Without a cache it is one device read. With one, a device-loaded
// run is copied into the cache; when a block's cumulative run reads cross
// the promotion density, its whole payload is read once sequentially and
// cached under KindOutBlock, making every later run a memory slice.
func (p *Prefetcher) loadRun(res *PrefetchResult, r run, buf []byte) ([]byte, error) {
	i, j := res.Key.I, res.Key.J
	if p.cache != nil {
		if data, ok := p.cache.GetRun(i, j, r.s, r.e); ok {
			return data, nil
		}
	}
	data, err := p.ds.LoadOutRunScratch(i, j, r.s, r.e, buf)
	if err != nil {
		return nil, err
	}
	res.runBytes += int64(len(data))
	if p.cache != nil && p.cache.PutRun(i, j, r.s, r.e, append([]byte(nil), data...), p.ds.OutBlockBytes(i, j)) {
		// Promotion is an optimization read: a failure here just leaves
		// runs being served from the device (the claim is one-shot, so a
		// faulty block is not re-attempted every run).
		if payload, perr := p.ds.LoadOutPayload(i, j); perr == nil {
			p.cache.Put(BlockKey{Kind: KindOutBlock, I: i, J: j}, &CachedBlock{Payload: payload})
		}
	}
	return data, nil
}

// Next returns the next result in schedule order. Single consumer only.
func (p *Prefetcher) Next() *PrefetchResult {
	if p.nextConsume >= len(p.reqs) {
		return &PrefetchResult{Err: fmt.Errorf("blockstore: prefetch: consumed past schedule end (%d entries)", len(p.reqs))}
	}
	req := &p.reqs[p.nextConsume]
	p.nextConsume++
	return p.consume(req)
}

// Take returns the result for key and hands its read-ahead token back; see
// the type comment for the ordering contract concurrent consumers must
// follow.
func (p *Prefetcher) Take(key BlockKey) *PrefetchResult {
	req, ok := p.byKey[key]
	if !ok {
		return &PrefetchResult{Key: key, Err: fmt.Errorf("blockstore: prefetch: %s (%d,%d) not in schedule", key.Kind, key.I, key.J)}
	}
	res := p.consume(req)
	if res.token {
		res.token = false
		p.sem <- struct{}{}
	}
	return res
}

func (p *Prefetcher) consume(req *prefetchReq) *PrefetchResult {
	req.consumed.Store(true)
	if p.sem == nil {
		return p.load(req)
	}
	select {
	case <-req.ready:
		return req.res
	default:
	}
	// The read hasn't completed: the consumer is stalled on I/O.
	t0 := time.Now()
	<-req.ready
	p.stallNanos.Add(int64(time.Since(t0)))
	return req.res
}

// StallTime returns the cumulative wall time consumers spent blocked
// waiting for reads that had not completed when requested — the residual
// I/O latency the read-ahead failed to hide.
func (p *Prefetcher) StallTime() time.Duration {
	return time.Duration(p.stallNanos.Load())
}

// Close aborts outstanding work and reclaims delivered-but-unconsumed
// results, counting their loaded bytes as prefetched-unused. It blocks until
// every worker has exited, so all device charges of this pipeline land
// before the caller snapshots I/O statistics. Requests no worker claimed are
// failed, so a consumer arriving after Close gets an error, never a hang.
// The cache room reserved for admitted blocks that were never loaded is
// returned.
func (p *Prefetcher) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.admitted != nil {
		defer p.cache.release(p.window, p.admitted)
	}
	if p.sem == nil {
		return
	}
	close(p.quit)
	p.wg.Wait()
	claimed := int(p.next.Load())
	if claimed > len(p.reqs) {
		claimed = len(p.reqs)
	}
	for i := 0; i < claimed; i++ {
		req := &p.reqs[i]
		if req.consumed.Load() {
			continue
		}
		<-req.ready
		res := req.res
		p.unused.Add(res.dataBytes())
		if res.sc != nil {
			PutScratch(res.sc)
			res.sc = nil
		}
		// Leave an abort result behind: a consumer racing Close may have
		// missed the consumed check above and be about to receive — it
		// must get an error, never block on the token just taken.
		p.failReq(req)
	}
	for i := claimed; i < len(p.reqs); i++ {
		p.failReq(&p.reqs[i])
	}
}

// failReq delivers an abort result for req, so any consumer arriving at or
// after Close resolves with an error. Close calls it with the workers gone
// and req's token taken (or never sent).
func (p *Prefetcher) failReq(req *prefetchReq) {
	err := p.abortErr()
	if err == nil {
		err = fmt.Errorf("blockstore: prefetch: closed before %s (%d,%d) was read", req.key.Kind, req.key.I, req.key.J)
	}
	req.deliver(&PrefetchResult{Key: req.key, Err: err})
}

// UnusedBytes returns the bytes loaded ahead but discarded unconsumed —
// read-ahead wasted on an aborted or truncated traversal. Valid after Close.
func (p *Prefetcher) UnusedBytes() int64 { return p.unused.Load() }

// setAbort records the first load error; later claims fail with it.
func (p *Prefetcher) setAbort(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

func (p *Prefetcher) abortErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}
