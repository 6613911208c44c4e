package blockstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Async block prefetch pipeline.
//
// The engine's traversal order is statically known once an iteration's
// frontier is fixed: COP streams in-blocks column-major, ROP touches the
// out-indices of active rows row-major. A Prefetcher takes that schedule up
// front and overlaps I/O with compute: while the engine processes block k, a
// small worker pool (PartitionedVC-style) reads and checksum-verifies blocks
// k+1.. into pooled Scratch buffers, and decodes their indices — or serves
// them straight from the BlockCache — and delivers each result on its own
// channel. A compressed in-block is delivered as stored, for the COP
// kernel to fold as it decodes it; only one the cache admits is decoded
// here, into the cache.
//
// Read-ahead is bounded by a token semaphore: at most `depth` results exist
// between load-start and Release, so memory stays at O(depth) blocks no
// matter how long the schedule is. Transient-fault retry/backoff runs inside
// the workers (they call the DualStore read paths, which own the retry
// policy), preserving the fault-injection semantics of the synchronous path.
//
// Consumption modes:
//
//   - Next() — strict schedule order, single consumer (COP's column scan).
//   - Take(key) — by key, from concurrent consumers (ROP's row workers).
//     Safe whenever the consumers collectively drain a contiguous window of
//     the schedule (e.g. all blocks of the current row): workers claim
//     requests in schedule order, so a Take far ahead of the oldest
//     unconsumed entry can only complete once earlier results are released.
//
// On a load error the prefetcher aborts: the failing result carries the
// error, and every request not yet claimed is failed with the same root
// cause instead of being read — so a permanent fault surfaces as the
// iteration error on every waiting consumer rather than a hang.
type Prefetcher struct {
	ds    *DualStore
	cache *BlockCache
	// extents, when non-nil, holds each block's Extent at i·P+j: an
	// out-index is then loaded as the page span of its extent
	// (LoadOutIndexSpanScratch), and whole otherwise.
	extents []Extent
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

// PrefetchResult is one delivered block: Payload and ByteIdx (its in-index
// entries) for an in-block, in the layout Codec names, Payload alone for an
// out-index — the (Size(i)+1)·4 bytes of its offsets (see CachedBlock), or
// of a page-span load the bytes from offset Base on. Views alias either a
// pooled Scratch (returned by Release) or an immutable cache entry; they are
// read-only and valid until Release.
type PrefetchResult struct {
	Key BlockKey
	Err error

	Payload []byte
	ByteIdx []uint32
	// Codec is the layout of an in-block's Payload: CodecNone for packed raw
	// records — a block stored raw, or one served decoded from the cache —
	// and CodecVarint for a compressed block as stored, its ByteIdx ends
	// then being offsets into the varint sections.
	Codec Codec
	// Base is the stored payload offset Payload starts at: nonzero only for
	// an out-index loaded as a page span that does not start at page 0.
	Base int
	// Cached reports the result was served from the block cache (no
	// device I/O, no scratch to return).
	Cached bool

	sc *Scratch
	pf *Prefetcher
}

// Release returns the result's buffers to the scratch pool and hands its
// read-ahead token back to the workers. Call it once the block's data is no
// longer needed; the views are invalid afterwards. Safe to call more than
// once.
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
	if pf.sem != nil {
		pf.sem <- struct{}{}
	}
}

// dataBytes estimates the loaded payload size, for unused-prefetch
// accounting. Cache hits cost no I/O and count zero.
func (r *PrefetchResult) dataBytes() int64 {
	if r.Cached || r.Err != nil {
		return 0
	}
	return (&CachedBlock{Payload: r.Payload, ByteIdx: r.ByteIdx}).Bytes()
}

// NewPrefetcher starts a prefetch pipeline over schedule. extents, when
// non-nil, is the P·P grid of block extents a ROP iteration pushes over
// (core.Engine.markLive): each scheduled out-index is loaded as the page span
// of its block's extent, not whole. depth is the worker count and read-ahead
// bound; depth <= 0 runs inline — Next/Take perform the load synchronously on
// the calling goroutine (the cache, when non-nil, is still consulted), which
// is the prefetch-disabled configuration sharing one code path with the
// async one. cache may be nil; when it is not, the pipeline opens the cache's
// next window and asks it, in schedule order, which of the schedule's misses
// to keep — only those are copied into it.
//
// Close must be called when done (normally deferred), even after an error.
func (d *DualStore) NewPrefetcher(schedule []BlockKey, extents []Extent, depth int, cache *BlockCache) *Prefetcher {
	p := &Prefetcher{
		cache:   cache,
		extents: extents,
		reqs:    make([]prefetchReq, len(schedule)),
		byKey:   make(map[BlockKey]*prefetchReq, len(schedule)),
		quit:    make(chan struct{}),
	}
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
	if depth > 0 && len(schedule) > 0 {
		p.sem = make(chan struct{}, depth)
		for i := 0; i < depth; i++ {
			p.sem <- struct{}{}
		}
		for w := 0; w < depth; w++ {
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
// meta: an in-block's decoded records plus its in-index entries, or a whole
// out-index. It is -1 for a page-span load of part of an out-index, which is
// not cacheable; a cached out-index is always whole, so it serves any extent.
func (p *Prefetcher) entryBytes(key BlockKey) int64 {
	d := p.ds
	switch key.Kind {
	case KindInBlock:
		return d.BlockEdgeCount[key.I][key.J]*int64(RawRecordBytes(d.Weighted)) +
			d.InIndexEntries[key.I][key.J]*InIndexEntryBytes
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
// cache, so the scratch can be recycled immediately and later iterations hit.
func (p *Prefetcher) load(req *prefetchReq) *PrefetchResult {
	key, res := req.key, &req.loaded
	if p.cache != nil {
		if blk, ok := p.cache.Get(key); ok {
			*res = PrefetchResult{Key: key, Cached: true, pf: p, Payload: blk.Payload, ByteIdx: blk.ByteIdx}
			return res
		}
	}
	sc := GetScratch()
	// Ownership of sc transfers to the result: PrefetchResult.Release/Close
	// return it to the pool exactly once.
	*res = PrefetchResult{Key: key, sc: sc, pf: p}
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
		// A compressed block stays as stored: the COP kernel decodes its
		// sections as it folds them, which costs less than decoding here
		// into a copy the kernel then reads a second time.
		res.Payload, res.ByteIdx, err = p.ds.LoadInBlockBytesScratch(key.I, key.J, sc)
		res.Codec = p.ds.InCodec(key.I, key.J)
	default:
		err = fmt.Errorf("blockstore: prefetch: unknown block kind %d", key.Kind)
	}
	if err != nil {
		PutScratch(sc)
		*res = PrefetchResult{Key: key, Err: err}
		return res
	}
	if req.admit {
		blk := &CachedBlock{}
		if res.Codec == CodecNone {
			blk.Payload = append([]byte(nil), res.Payload...)
			blk.ByteIdx = append([]uint32(nil), res.ByteIdx...)
		} else {
			// The cache holds blocks decoded, at what the meta charged for
			// them (entryBytes), so a hit costs no decode.
			recs := make([]byte, 0, p.ds.BlockEdgeCount[key.I][key.J]*int64(RawRecordBytes(p.ds.Weighted)))
			if blk.Payload, blk.ByteIdx, err = DecodeInBlock(recs, res.Payload, res.ByteIdx, p.ds.Weighted); err != nil {
				PutScratch(sc)
				*res = PrefetchResult{Key: key, Err: fmt.Errorf("blockstore: in-block (%d,%d): %w", key.I, key.J, err)}
				return res
			}
		}
		if p.cache.Put(key, blk) {
			// Serve the immutable cached copy; the scratch is free now.
			res.Payload, res.ByteIdx, res.Codec = blk.Payload, blk.ByteIdx, CodecNone
			PutScratch(sc)
			res.sc = nil
		}
	}
	return res
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

// Take returns the result for key; see the type comment for the ordering
// contract concurrent consumers must follow.
func (p *Prefetcher) Take(key BlockKey) *PrefetchResult {
	req, ok := p.byKey[key]
	if !ok {
		return &PrefetchResult{Key: key, Err: fmt.Errorf("blockstore: prefetch: %s (%d,%d) not in schedule", key.Kind, key.I, key.J)}
	}
	return p.consume(req)
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
