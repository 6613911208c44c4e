package blockstore

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// Budgeted hot-block cache.
//
// Iterative algorithms re-read the same P×P blocks every iteration: PageRank
// streams every in-block column five times, WCC and BFS re-touch the dense
// core for many rounds. GraphMP's semi-external caching showed that keeping
// that working set resident turns steady-state iterations from disk-bound to
// memory-bound — so the engine threads every block load through a BlockCache
// under a strict byte budget. It holds a block exactly as stored — the
// CRC-checked payload — charged its stored size, so a compressed block takes
// the room it takes on disk and the cache holds more of the graph. A hit
// costs no read and no CRC; COP checks the tile directory of every in-block
// it folds, hit or miss, and the kernels fold a compressed one as they
// decode it.
//
// The cache is access-granularity-aware (PartitionedVC-style): COP's
// in-blocks and ROP's out-indices are cached whole, while ROP's selective
// out-edge runs are cached as byte-range entries of their out-block. Once
// the device-loaded run bytes of one out-block cross a density threshold,
// the block is promoted: the whole payload is read once sequentially and
// every later run is served as an in-memory slice.
//
// Admission is scan-resistant. Time is counted in windows: every prefetcher
// opened over the cache (one per engine iteration) starts the next one, and
// each entry remembers the window it was last used in. An insert may evict
// only entries used in neither the current window nor the one before —
// oldest window first, ties in key order — and is refused when those do not
// free enough room. A COP sweep over more columns than fit therefore keeps
// the blocks it admitted first, iteration after iteration, where LRU would
// evict each block just before its reuse and hit nothing. The prefetcher
// asks for its plan's admissions up front, in plan order (admitPlan), so
// what is resident is a function of the store, the budget and the plans,
// never of the order in which workers finish.

// BlockKind identifies which view of the dual-block layout a cache or
// prefetch key refers to.
type BlockKind uint8

const (
	// KindInBlock is the fully-loaded in-block(i,j): its payload, as
	// stored.
	KindInBlock BlockKind = iota
	// KindOutIndex is out-index(i,j): per-source byte offsets into
	// out-block(i,j), as stored: (Size(i)+1) little-endian uint32.
	KindOutIndex
	// KindOutBlock is the whole raw payload of out-block(i,j), promoted
	// into the cache once run-granular reads crossed the density
	// threshold; it also keys that block's run-granular entries.
	KindOutBlock
)

// String names the kind for diagnostics.
func (k BlockKind) String() string {
	switch k {
	case KindInBlock:
		return "in-block"
	case KindOutIndex:
		return "out-index"
	case KindOutBlock:
		return "out-block"
	default:
		return "BlockKind(?)"
	}
}

// BlockKey addresses one loadable unit of the dual-block layout.
type BlockKey struct {
	Kind BlockKind
	I, J int
}

// CachedBlock is one immutable cache entry, as stored:
//
//   - KindInBlock: Payload, the CRC-checked in-block payload in the codec
//     the meta records (InCodec).
//   - KindOutIndex: Payload — the offset index LoadOutIndexScratch returns.
//   - KindOutBlock: Payload — the out-block's packed raw records, which
//     runs slice into.
//
// Entries must never be mutated after insertion: they are shared by every
// reader that hits them, concurrently.
type CachedBlock struct {
	Payload []byte
}

// Bytes returns the entry's budget charge: the bytes it holds, which for an
// in-block is its InBlockBytes.
func (b *CachedBlock) Bytes() int64 { return int64(len(b.Payload)) }

// CacheStats is a snapshot of a BlockCache's counters.
type CacheStats struct {
	// Hits and Misses count all lookup outcomes, whole-block and
	// run-granular alike.
	Hits, Misses int64
	// RunHits and RunMisses count only the run-granular lookups (ROP's
	// selective out-edge loads), a subset of Hits/Misses.
	RunHits, RunMisses int64
	// Evictions counts entries dropped to stay within budget;
	// BytesEvicted is their cumulative size.
	Evictions    int64
	BytesEvicted int64
	// Promotions counts out-blocks whose run-read density crossed the
	// threshold and were loaded whole; AdmissionRejected counts inserts
	// (and planned misses) refused because too little of the cache was
	// stale enough to evict.
	Promotions        int64
	AdmissionRejected int64
	// Entries and BytesUsed describe current residency; Budget is the
	// configured bound.
	Entries   int
	BytesUsed int64
	Budget    int64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sub returns the counter difference s - earlier (residency fields are
// copied from s). The engine uses it for per-iteration deltas.
func (s CacheStats) Sub(earlier CacheStats) CacheStats {
	s.Hits -= earlier.Hits
	s.Misses -= earlier.Misses
	s.RunHits -= earlier.RunHits
	s.RunMisses -= earlier.RunMisses
	s.Evictions -= earlier.Evictions
	s.BytesEvicted -= earlier.BytesEvicted
	s.Promotions -= earlier.Promotions
	s.AdmissionRejected -= earlier.AdmissionRejected
	return s
}

// Add returns the field-wise sum s + o, residency and budget included: K
// shard caches over disjoint budget slices report as one.
func (s CacheStats) Add(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.RunHits += o.RunHits
	s.RunMisses += o.RunMisses
	s.Evictions += o.Evictions
	s.BytesEvicted += o.BytesEvicted
	s.Promotions += o.Promotions
	s.AdmissionRejected += o.AdmissionRejected
	s.Entries += o.Entries
	s.BytesUsed += o.BytesUsed
	s.Budget += o.Budget
	return s
}

// promoteDensity is the run-read density (device-loaded run bytes /
// out-block payload bytes) at which a block is promoted to a whole-payload
// cache entry.
const promoteDensity = 0.5

// CacheOptions, Admission and AdmitTinyLFU are retired names, kept only so
// perfbench/trace.go compiles: the cache has one admission rule (see the
// file comment) and NewBlockCacheOpts ignores its options.
type CacheOptions struct{ Admission Admission }

// Admission is a retired policy selector; see CacheOptions.
type Admission uint8

// AdmitTinyLFU is the one Admission value; it selects nothing.
const AdmitTinyLFU Admission = 0

// NewBlockCacheOpts is NewBlockCache; the options are ignored.
func NewBlockCacheOpts(budget int64, _ CacheOptions) *BlockCache { return NewBlockCache(budget) }

// cacheKey addresses one cache entry: a whole block (s == e == 0) or a run
// byte range [s, e) of out-block (I, J) keyed under KindOutBlock.
type cacheKey struct {
	BlockKey
	s, e uint32
}

// BlockCache is a byte-budgeted cache of stored blocks and out-block runs,
// safe for concurrent use by the engine and prefetch workers.
type BlockCache struct {
	mu     sync.Mutex
	budget int64
	used   int64 // resident entry bytes
	items  map[cacheKey]*cacheEntry

	// window is the current window; winBytes[w] the resident bytes last used
	// in window w, so an insert knows in O(1) how many bytes it may evict.
	window   int64
	winBytes map[int64]int64
	// victims is the current window's evictable entries in eviction order,
	// built on the window's first eviction (nil until then). Within a window
	// entries only leave that set, so those touched or removed since are
	// skipped as they come up.
	victims []*cacheEntry
	// reserved holds the bytes admitPlan set aside for each admitted planned
	// miss until its Put fills them or its prefetcher closes; held is their
	// sum. used + held never exceeds budget.
	reserved map[cacheKey]reservation
	held     int64

	// Per out-block run bookkeeping. runs holds each block's resident run
	// entries sorted by start offset and containment-free (no run contains
	// another, so end offsets are strictly increasing too and the greatest
	// start ≤ a query start is the only candidate that can cover it).
	runs        map[BlockKey][]*cacheEntry
	runLoaded   map[BlockKey]int64 // cumulative device-loaded run bytes (density)
	runResident map[BlockKey]int64 // currently resident run bytes
	promoting   map[BlockKey]bool  // promotion claimed (at most once per block)

	hits, misses, evictions, bytesEvicted int64
	runHits, runMisses                    int64
	promotions, admissionRejected         int64
}

type cacheEntry struct {
	key cacheKey
	blk *CachedBlock // whole entries
	run []byte       // run entries (key.e > key.s)
	sz  int64
	win int64 // the window the entry was last used in
}

// reservation is the room admitPlan set aside for one planned miss, in the
// window of the plan that asked.
type reservation struct{ bytes, win int64 }

// NewBlockCache returns an empty cache bounded by budget bytes. A budget
// <= 0 yields a cache that admits nothing (every Get misses).
func NewBlockCache(budget int64) *BlockCache {
	return &BlockCache{
		budget:      budget,
		items:       make(map[cacheKey]*cacheEntry),
		winBytes:    make(map[int64]int64),
		reserved:    make(map[cacheKey]reservation),
		runs:        make(map[BlockKey][]*cacheEntry),
		runLoaded:   make(map[BlockKey]int64),
		runResident: make(map[BlockKey]int64),
		promoting:   make(map[BlockKey]bool),
	}
}

// Get returns the cached block for k, marking it used in this window.
func (c *BlockCache) Get(k BlockKey) (*CachedBlock, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[cacheKey{BlockKey: k}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touchLocked(ent)
	return ent.blk, true
}

// Peek reports residency without touching counters or windows — the
// predictor uses it to price the coming iteration without distorting the
// hit statistics it is trying to stay honest about.
func (c *BlockCache) Peek(k BlockKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[cacheKey{BlockKey: k}]
	return ok
}

// RunBytesResident returns the resident run-entry bytes of out-block (i,j),
// without touching counters — the predictor's run-granular residency view.
func (c *BlockCache) RunBytesResident(i, j int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runResident[BlockKey{Kind: KindOutBlock, I: i, J: j}]
}

// Put inserts (or replaces) k's whole-block entry, filling the room
// admitPlan reserved for it if there is any and otherwise evicting under the
// admission rule. Entries larger than the whole budget, and entries the rule
// refuses, are rejected, reported by the false return; a rejected
// replacement leaves the entry it would have replaced. Inserting a
// KindOutBlock payload supersedes that block's run entries.
func (c *BlockCache) Put(k BlockKey, blk *CachedBlock) bool {
	ck := cacheKey{BlockKey: k}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.reserved[ck]; ok {
		delete(c.reserved, ck)
		c.held -= r.bytes
	}
	if k.Kind == KindOutBlock {
		// The whole payload covers every run; drop them first so the
		// budget does not hold both copies.
		c.dropRunsLocked(k)
	}
	old := c.items[ck]
	if old != nil {
		c.removeLocked(old)
	}
	if c.insertLocked(&cacheEntry{key: ck, blk: blk, sz: blk.Bytes()}) {
		return true
	}
	if old != nil {
		c.addLocked(old)
	}
	return false
}

// GetRun returns the bytes of run [s, e) of out-block (i,j) when the cache
// can serve them — from the promoted whole payload or from a containing run
// entry. The returned slice is immutable shared cache memory.
func (c *BlockCache) GetRun(i, j int, s, e uint32) ([]byte, bool) {
	bk := BlockKey{Kind: KindOutBlock, I: i, J: j}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Promoted whole payload first.
	if ent, ok := c.items[cacheKey{BlockKey: bk}]; ok {
		if int(e) <= len(ent.blk.Payload) && s <= e {
			c.hits++
			c.runHits++
			c.touchLocked(ent)
			return ent.blk.Payload[s:e], true
		}
	}
	// Containment-free sorted runs: the greatest start ≤ s has the
	// greatest end among candidates, so it is the only one to check.
	if ent := c.runCoveringLocked(bk, s); ent != nil && ent.key.e >= e {
		c.hits++
		c.runHits++
		c.touchLocked(ent)
		return ent.run[s-ent.key.s : e-ent.key.s], true
	}
	c.misses++
	c.runMisses++
	return nil, false
}

// runCoveringLocked returns the resident run of bk with the greatest start
// ≤ s, or nil.
func (c *BlockCache) runCoveringLocked(bk BlockKey, s uint32) *cacheEntry {
	ents := c.runs[bk]
	idx := sort.Search(len(ents), func(n int) bool { return ents[n].key.s > s }) - 1
	if idx < 0 {
		return nil
	}
	return ents[idx]
}

// PutRun caches the device-loaded bytes of run [s, e) of out-block (i,j),
// whose whole payload is blockBytes long. data must be an unaliased copy
// the cache can own. The return value reports a promotion claim: true
// exactly once per block, when its cumulative device-loaded run bytes cross
// the density threshold — the caller should then load the whole payload
// sequentially and Put it under KindOutBlock. The claiming call does not
// insert its run: the whole payload is about to supersede every run entry,
// and charging the triggering run against the budget first could evict
// unrelated entries to make room for bytes dropped moments later.
func (c *BlockCache) PutRun(i, j int, s, e uint32, data []byte, blockBytes int64) bool {
	bk := BlockKey{Kind: KindOutBlock, I: i, J: j}
	sz := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	_, whole := c.items[cacheKey{BlockKey: bk}]
	promote := false
	if sz > 0 {
		c.runLoaded[bk] += sz
		if blockBytes > 0 && !c.promoting[bk] && !whole &&
			float64(c.runLoaded[bk]) >= promoteDensity*float64(blockBytes) {
			c.promoting[bk] = true
			c.promotions++
			promote = true
		}
	}
	// Skip the insert when existing entries already cover the range.
	if e <= s || sz == 0 || promote || whole {
		return promote
	}
	if ent := c.runCoveringLocked(bk, s); ent != nil && ent.key.e >= e {
		return promote
	}
	// Drop resident runs the new one fully contains, keeping the slice
	// containment-free (starts and ends both strictly increasing).
	ents := c.runs[bk]
	idx := sort.Search(len(ents), func(n int) bool { return ents[n].key.s >= s })
	for idx < len(ents) && ents[idx].key.e <= e {
		c.removeLocked(ents[idx])
		ents = c.runs[bk]
	}
	c.insertLocked(&cacheEntry{key: cacheKey{BlockKey: bk, s: s, e: e}, run: data, sz: sz})
	return promote
}

// admitPlan opens the next window and decides, once and in plan order, which
// of plan's misses the cache will take. sizes[n] is the bytes plan[n]'s entry
// will be charged, negative for a key whose load is not cacheable. A
// resident key is marked used in the new window, so no admission of the
// same plan evicts it; an admitted key has its bytes reserved until Put
// fills them or release returns them. A key another open plan has reserved
// is left to that plan. It returns the new window and the admitted keys.
func (c *BlockCache) admitPlan(plan []BlockKey, sizes []int64) (win int64, admitted []BlockKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.window++
	c.victims = nil
	for n, k := range plan {
		ck := cacheKey{BlockKey: k}
		if ent, ok := c.items[ck]; ok {
			c.touchLocked(ent)
			continue
		}
		sz := sizes[n]
		if _, taken := c.reserved[ck]; sz < 0 || taken || sz > c.budget {
			continue
		}
		if !c.makeRoomLocked(sz) {
			c.admissionRejected++
			continue
		}
		c.reserved[ck] = reservation{bytes: sz, win: c.window}
		c.held += sz
		admitted = append(admitted, k)
	}
	return c.window, admitted
}

// release returns the reservations window win made for keys that Put has
// not filled.
func (c *BlockCache) release(win int64, keys []BlockKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		ck := cacheKey{BlockKey: k}
		if r, ok := c.reserved[ck]; ok && r.win == win {
			delete(c.reserved, ck)
			c.held -= r.bytes
		}
	}
}

// insertLocked admits ent under the admission rule. Caller holds c.mu and
// has removed any entry with the same key.
func (c *BlockCache) insertLocked(ent *cacheEntry) bool {
	if ent.sz > c.budget {
		return false
	}
	if !c.makeRoomLocked(ent.sz) {
		c.admissionRejected++
		return false
	}
	ent.win = c.window
	c.addLocked(ent)
	return true
}

// addLocked makes ent resident as last used in ent.win.
func (c *BlockCache) addLocked(ent *cacheEntry) {
	c.items[ent.key] = ent
	c.used += ent.sz
	c.winBytes[ent.win] += ent.sz
	if ent.key.e > ent.key.s {
		c.insertRunIndexLocked(ent)
	}
}

// makeRoomLocked evicts until sz more bytes fit the budget, taking only
// entries last used before the previous window, oldest window first and in
// key order within one. It evicts nothing and reports false when those
// entries together are too few.
func (c *BlockCache) makeRoomLocked(sz int64) bool {
	over := c.used + c.held + sz - c.budget
	if over <= 0 {
		return true
	}
	if c.used-c.winBytes[c.window]-c.winBytes[c.window-1] < over {
		return false
	}
	if c.victims == nil {
		c.victims = make([]*cacheEntry, 0, len(c.items))
		for _, ent := range c.items {
			if c.evictable(ent) {
				c.victims = append(c.victims, ent)
			}
		}
		slices.SortFunc(c.victims, func(a, b *cacheEntry) int {
			return cmp.Or(cmp.Compare(a.win, b.win), cmp.Compare(a.key.Kind, b.key.Kind), cmp.Compare(a.key.I, b.key.I),
				cmp.Compare(a.key.J, b.key.J), cmp.Compare(a.key.s, b.key.s), cmp.Compare(a.key.e, b.key.e))
		})
	}
	for over > 0 && len(c.victims) > 0 {
		v := c.victims[0]
		c.victims = c.victims[1:]
		if c.items[v.key] == v && c.evictable(v) {
			c.evictLocked(v)
			over -= v.sz
		}
	}
	return true
}

// evictable reports whether ent was last used before the previous window.
func (c *BlockCache) evictable(ent *cacheEntry) bool { return ent.win < c.window-1 }

// touchLocked marks ent used in the current window.
func (c *BlockCache) touchLocked(ent *cacheEntry) {
	if ent.win == c.window {
		return
	}
	c.forgetWinLocked(ent)
	ent.win = c.window
	c.winBytes[ent.win] += ent.sz
}

// forgetWinLocked takes ent's bytes off its window's total.
func (c *BlockCache) forgetWinLocked(ent *cacheEntry) {
	if c.winBytes[ent.win] -= ent.sz; c.winBytes[ent.win] == 0 {
		delete(c.winBytes, ent.win)
	}
}

// insertRunIndexLocked places ent into its block's sorted run slice.
func (c *BlockCache) insertRunIndexLocked(ent *cacheEntry) {
	bk := ent.key.BlockKey
	ents := c.runs[bk]
	idx := sort.Search(len(ents), func(n int) bool { return ents[n].key.s > ent.key.s })
	ents = append(ents, nil)
	copy(ents[idx+1:], ents[idx:])
	ents[idx] = ent
	c.runs[bk] = ents
	c.runResident[bk] += ent.sz
}

// removeLocked detaches ent from the map, its window total and the run
// index without counting an eviction (replacements and supersessions).
func (c *BlockCache) removeLocked(ent *cacheEntry) {
	delete(c.items, ent.key)
	c.used -= ent.sz
	c.forgetWinLocked(ent)
	if ent.key.e > ent.key.s {
		c.removeRunIndexLocked(ent)
	}
}

func (c *BlockCache) removeRunIndexLocked(ent *cacheEntry) {
	bk := ent.key.BlockKey
	ents := c.runs[bk]
	for n, cand := range ents {
		if cand == ent {
			c.runs[bk] = append(ents[:n], ents[n+1:]...)
			break
		}
	}
	c.runResident[bk] -= ent.sz
	if c.runResident[bk] <= 0 {
		delete(c.runResident, bk)
	}
	if len(c.runs[bk]) == 0 {
		delete(c.runs, bk)
	}
}

// dropRunsLocked removes every run entry of block k (superseded by its
// whole payload), uncounted as evictions.
func (c *BlockCache) dropRunsLocked(k BlockKey) {
	for len(c.runs[k]) > 0 {
		c.removeLocked(c.runs[k][0])
	}
}

// evictLocked drops ent to relieve budget pressure.
func (c *BlockCache) evictLocked(ent *cacheEntry) {
	c.removeLocked(ent)
	c.evictions++
	c.bytesEvicted += ent.sz
}

// Stats returns a snapshot of the cache counters and residency.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:              c.hits,
		Misses:            c.misses,
		RunHits:           c.runHits,
		RunMisses:         c.runMisses,
		Evictions:         c.evictions,
		BytesEvicted:      c.bytesEvicted,
		Promotions:        c.promotions,
		AdmissionRejected: c.admissionRejected,
		Entries:           len(c.items),
		BytesUsed:         c.used,
		Budget:            c.budget,
	}
}
