package blockstore

import (
	"container/list"
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
// holding *decoded* blocks (no re-read, no re-verify, no re-decode on a hit)
// under a strict byte budget. A decoded block is its packed raw records,
// whatever codec stored it, so a compressed block and its stored-raw twin
// are the same entry at the same charge.
//
// The cache is access-granularity-aware (PartitionedVC-style): COP's
// in-blocks and ROP's out-indices are cached whole, while ROP's selective
// out-edge runs are cached as byte-range entries of their out-block. Once
// the device-loaded run bytes of one out-block cross a density threshold,
// the block is promoted: the whole payload is read once sequentially and
// every later run is served as an in-memory slice. Under eviction pressure
// the cache can gate admission with a TinyLFU-style frequency sketch so hot
// resident blocks are not displaced by one-pass scans.

// BlockKind identifies which view of the dual-block layout a cache or
// prefetch key refers to.
type BlockKind uint8

const (
	// KindInBlock is the fully-loaded in-block(i,j): its packed raw
	// records plus the in-index entries into them.
	KindInBlock BlockKind = iota
	// KindOutIndex is out-index(i,j): per-source byte offsets into
	// out-block(i,j), as the bytes of its stored-raw form.
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

// CachedBlock is one immutable decoded cache entry. Exactly the fields the
// engine's hot paths consume are retained:
//
//   - KindInBlock: Payload (packed raw records, decoded if the block is
//     stored compressed) + ByteIdx (the in-index: a (local destination,
//     end byte offset in Payload) pair per destination with records, as
//     LoadInBlockBytesScratch returns it) — the zero-copy RawRec
//     iteration view.
//   - KindOutIndex: Payload — the offset index LoadOutIndexScratch returns.
//   - KindOutBlock: Payload — the *stored* out-block bytes runs slice
//     into; sections of a compressed block are decoded on touch.
//
// Entries must never be mutated after insertion: they are shared by every
// reader that hits them, concurrently.
type CachedBlock struct {
	Payload []byte
	ByteIdx []uint32
}

// Bytes returns the entry's budget charge: the memory its retained slices
// hold (4 bytes per index word, in-index or out-index alike).
func (b *CachedBlock) Bytes() int64 {
	return int64(len(b.Payload)) + 4*int64(len(b.ByteIdx))
}

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
	// the frequency-admission policy refused under eviction pressure.
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

// Admission selects the cache's insert policy under eviction pressure.
type Admission uint8

const (
	// AdmitLRU always admits and evicts least-recently-used entries — the
	// classic promote-on-miss policy.
	AdmitLRU Admission = iota
	// AdmitTinyLFU gates inserts that would force an eviction: the
	// candidate must estimate at least as frequent as the LRU victim in a
	// count-min sketch of recent lookups, protecting hot resident blocks
	// from one-pass scans. Inserts that fit without evicting are free.
	AdmitTinyLFU
)

// String names the admission policy for flags and reports.
func (a Admission) String() string {
	switch a {
	case AdmitLRU:
		return "lru"
	case AdmitTinyLFU:
		return "tinylfu"
	default:
		return "Admission(?)"
	}
}

// promoteDensity is the run-read density (device-loaded run bytes /
// out-block payload bytes) at which a block is promoted to a whole-payload
// cache entry.
const promoteDensity = 0.5

// CacheOptions configures NewBlockCacheOpts beyond the byte budget.
type CacheOptions struct {
	// Admission is the insert policy under eviction pressure.
	Admission Admission
}

// cacheKey addresses one cache entry: a whole block (s == e == 0) or a run
// byte range [s, e) of out-block (I, J) keyed under KindOutBlock.
type cacheKey struct {
	BlockKey
	s, e uint32
}

// freqKey maps an entry key to the key its lookup frequency is tracked
// under: run entries share their block's frequency (block heat is what
// admission should compare, not individual coalesced ranges).
func freqKey(k cacheKey) cacheKey {
	k.s, k.e = 0, 0
	return k
}

// BlockCache is a byte-budgeted cache of decoded blocks and out-block runs,
// safe for concurrent use by the engine and prefetch workers.
type BlockCache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	admission Admission
	sketch    *freqSketch // nil under AdmitLRU

	// Per out-block run bookkeeping. runs holds each block's resident run
	// entries sorted by start offset and containment-free (no run contains
	// another, so end offsets are strictly increasing too and the greatest
	// start ≤ a query start is the only candidate that can cover it).
	runs        map[BlockKey][]*list.Element
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
}

// NewBlockCacheOpts returns an empty cache bounded by budget bytes, with the
// given admission policy. A budget <= 0 yields a cache that admits nothing
// (every Get misses).
func NewBlockCacheOpts(budget int64, opts CacheOptions) *BlockCache {
	c := &BlockCache{
		budget:      budget,
		ll:          list.New(),
		items:       make(map[cacheKey]*list.Element),
		admission:   opts.Admission,
		runs:        make(map[BlockKey][]*list.Element),
		runLoaded:   make(map[BlockKey]int64),
		runResident: make(map[BlockKey]int64),
		promoting:   make(map[BlockKey]bool),
	}
	if c.admission == AdmitTinyLFU {
		c.sketch = newFreqSketch()
	}
	return c
}

func (c *BlockCache) note(k cacheKey) {
	if c.sketch != nil {
		c.sketch.increment(freqKey(k))
	}
}

// Get returns the cached block for k, bumping it to most-recently-used.
func (c *BlockCache) Get(k BlockKey) (*CachedBlock, bool) {
	ck := cacheKey{BlockKey: k}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.note(ck)
	el, ok := c.items[ck]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).blk, true
}

// Peek reports residency without touching counters or LRU order — the
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

// Put inserts (or replaces) k's whole-block entry, evicting under the
// configured admission policy until the cache is back within budget.
// Entries larger than the whole budget — and entries the admission policy
// refuses — are rejected, reported by the false return so loaders can skip
// the copy next time. Inserting a KindOutBlock payload supersedes that
// block's run entries.
func (c *BlockCache) Put(k BlockKey, blk *CachedBlock) bool {
	ck := cacheKey{BlockKey: k}
	sz := blk.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.Kind == KindOutBlock {
		// The whole payload covers every run; drop them first so the
		// budget does not hold both copies.
		c.dropRunsLocked(k)
	}
	if el, ok := c.items[ck]; ok {
		c.removeLocked(el)
	}
	return c.insertLocked(&cacheEntry{key: ck, blk: blk, sz: sz})
}

// GetRun returns the bytes of run [s, e) of out-block (i,j) when the cache
// can serve them — from the promoted whole payload or from a containing run
// entry. The returned slice is immutable shared cache memory.
func (c *BlockCache) GetRun(i, j int, s, e uint32) ([]byte, bool) {
	bk := BlockKey{Kind: KindOutBlock, I: i, J: j}
	ck := cacheKey{BlockKey: bk, s: s, e: e}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.note(ck)
	// Promoted whole payload first.
	if el, ok := c.items[cacheKey{BlockKey: bk}]; ok {
		ent := el.Value.(*cacheEntry)
		if int(e) <= len(ent.blk.Payload) && s <= e {
			c.hits++
			c.runHits++
			c.ll.MoveToFront(el)
			return ent.blk.Payload[s:e], true
		}
	}
	// Containment-free sorted runs: the greatest start ≤ s has the
	// greatest end among candidates, so it is the only one to check.
	els := c.runs[bk]
	idx := sort.Search(len(els), func(n int) bool {
		return els[n].Value.(*cacheEntry).key.s > s
	}) - 1
	if idx >= 0 {
		el := els[idx]
		ent := el.Value.(*cacheEntry)
		if ent.key.e >= e {
			c.hits++
			c.runHits++
			c.ll.MoveToFront(el)
			return ent.run[s-ent.key.s : e-ent.key.s], true
		}
	}
	c.misses++
	c.runMisses++
	return nil, false
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
	ck := cacheKey{BlockKey: bk, s: s, e: e}
	sz := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	promote := false
	if sz > 0 {
		c.runLoaded[bk] += sz
		if blockBytes > 0 && !c.promoting[bk] {
			if _, whole := c.items[cacheKey{BlockKey: bk}]; !whole &&
				float64(c.runLoaded[bk]) >= promoteDensity*float64(blockBytes) {
				c.promoting[bk] = true
				c.promotions++
				promote = true
			}
		}
	}
	if e <= s || sz == 0 || promote {
		return promote
	}
	// Skip the insert when existing entries already cover the range.
	if _, whole := c.items[cacheKey{BlockKey: bk}]; whole {
		return promote
	}
	els := c.runs[bk]
	idx := sort.Search(len(els), func(n int) bool {
		return els[n].Value.(*cacheEntry).key.s > s
	}) - 1
	if idx >= 0 && els[idx].Value.(*cacheEntry).key.e >= e {
		return promote
	}
	// Drop resident runs the new one fully contains, keeping the slice
	// containment-free (starts and ends both strictly increasing).
	for n := idx + 1; n < len(els); {
		ent := els[n].Value.(*cacheEntry)
		if ent.key.s >= s && ent.key.e <= e {
			c.removeLocked(els[n])
			els = c.runs[bk]
			continue
		}
		break
	}
	c.insertLocked(&cacheEntry{key: ck, run: data, sz: sz})
	return promote
}

// insertLocked admits ent under the configured policy and evicts back to
// budget. Caller holds c.mu and has removed any entry with the same key.
func (c *BlockCache) insertLocked(ent *cacheEntry) bool {
	if ent.sz > c.budget {
		return false
	}
	if c.admission == AdmitTinyLFU {
		// Frequency gate, applied only under pressure: an insert that
		// would displace a more frequently seen victim is refused.
		for c.used+ent.sz > c.budget {
			back := c.ll.Back()
			if back == nil {
				break
			}
			victim := back.Value.(*cacheEntry)
			if c.sketch.estimate(freqKey(ent.key)) < c.sketch.estimate(freqKey(victim.key)) {
				c.admissionRejected++
				return false
			}
			c.evictLocked(back)
		}
	}
	el := c.ll.PushFront(ent)
	c.items[ent.key] = el
	c.used += ent.sz
	if ent.key.e > ent.key.s {
		c.insertRunIndexLocked(el)
	}
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evictLocked(back)
	}
	return true
}

// insertRunIndexLocked places el into its block's sorted run slice.
func (c *BlockCache) insertRunIndexLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	bk := ent.key.BlockKey
	els := c.runs[bk]
	idx := sort.Search(len(els), func(n int) bool {
		return els[n].Value.(*cacheEntry).key.s > ent.key.s
	})
	els = append(els, nil)
	copy(els[idx+1:], els[idx:])
	els[idx] = el
	c.runs[bk] = els
	c.runResident[bk] += ent.sz
}

// removeLocked detaches el from the list, map and run index without
// counting an eviction (replacements and supersessions).
func (c *BlockCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.sz
	if ent.key.e > ent.key.s {
		c.removeRunIndexLocked(el)
	}
}

func (c *BlockCache) removeRunIndexLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	bk := ent.key.BlockKey
	els := c.runs[bk]
	for n, cand := range els {
		if cand == el {
			c.runs[bk] = append(els[:n], els[n+1:]...)
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

// evictLocked drops the entry at el to relieve budget pressure.
func (c *BlockCache) evictLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.removeLocked(el)
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

// freqSketch is a small count-min sketch over recent cache lookups with
// periodic halving, the TinyLFU aging scheme: estimates recent popularity
// in O(1) space without per-entry metadata.
type freqSketch struct {
	rows    [4][]uint8
	samples int
}

const freqSketchWidth = 8192

func newFreqSketch() *freqSketch {
	s := &freqSketch{}
	for r := range s.rows {
		s.rows[r] = make([]uint8, freqSketchWidth)
	}
	return s
}

// sketchHash is FNV-1a over the key fields, seeded per row.
func sketchHash(k cacheKey, row int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (uint64(row+1) * 0x9e3779b97f4a7c15)
	for _, v := range [...]uint64{uint64(k.Kind), uint64(k.I), uint64(k.J), uint64(k.s), uint64(k.e)} {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= prime
		}
	}
	return h
}

func (s *freqSketch) increment(k cacheKey) {
	for r := range s.rows {
		idx := sketchHash(k, r) % freqSketchWidth
		if s.rows[r][idx] < 255 {
			s.rows[r][idx]++
		}
	}
	s.samples++
	if s.samples >= 10*freqSketchWidth {
		s.age()
	}
}

// age halves every counter so stale popularity decays.
func (s *freqSketch) age() {
	for r := range s.rows {
		for i := range s.rows[r] {
			s.rows[r][i] >>= 1
		}
	}
	s.samples = 0
}

func (s *freqSketch) estimate(k cacheKey) uint8 {
	est := uint8(255)
	for r := range s.rows {
		if v := s.rows[r][sketchHash(k, r)%freqSketchWidth]; v < est {
			est = v
		}
	}
	return est
}
