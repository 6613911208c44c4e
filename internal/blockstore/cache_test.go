package blockstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func payloadBlock(n int) *CachedBlock {
	return &CachedBlock{Payload: make([]byte, n)}
}

func inKey(i, j int) BlockKey { return BlockKey{Kind: KindInBlock, I: i, J: j} }

func TestCachedBlockBytes(t *testing.T) {
	b := &CachedBlock{Payload: make([]byte, 10)}
	if got := b.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d", got)
	}
	// A cached in-block is held as stored and charged its stored size,
	// InBlockBytes, which is also the per-block term shard.cacheSlices
	// splits a budget by. The paper example's in-block (0,0) holds 8 edges:
	// a raw store's, one CodecCOO record per edge, is its records alone; a
	// mixed store's, compressed, less than its 8 records.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds := prefetchStore(t, format)
		cache := NewBlockCache(1 << 20)
		sched := inBlockSchedule(ds)
		pf := ds.NewPrefetcher(sched, nil, nil, 0, cache)
		for range sched {
			res := pf.Next()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			res.Release()
		}
		pf.Close()
		for _, key := range sched {
			blk, ok := cache.Get(key)
			if !ok {
				t.Fatalf("%v: loaded in-block %+v not cached", format, key)
			}
			if got, want := blk.Bytes(), ds.InBlockBytes[key.I][key.J]; got != want {
				t.Fatalf("%v: cached in-block %+v charged %d bytes, stored size %d", format, key, got, want)
			}
		}
		got, raw := ds.InBlockBytes[0][0], int64(8*EdgeBytes)
		if format == FormatRaw && got != raw || format == FormatMixed && got >= raw {
			t.Fatalf("%v: in-block (0,0) charged %d bytes; raw, it takes %d", format, got, raw)
		}
	}
}

// resident returns k's whole-block entry in c, or nil, touching no counter.
func resident(c *BlockCache, k BlockKey) *CachedBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.items[cacheKey{BlockKey: k}]; ok {
		return ent.blk
	}
	return nil
}

// nextWindow opens the cache's next window with an empty plan, as a
// prefetcher over nothing would.
func nextWindow(c *BlockCache) {
	c.admitPlan(nil, nil)
}

func TestCacheHoldsExactlyTheBudget(t *testing.T) {
	// Two entries summing to exactly the budget must both stay resident.
	// One more byte is refused while both are fresh, and evicts the older
	// one once it is stale.
	c := NewBlockCache(100)
	if !c.Put(inKey(0, 0), payloadBlock(50)) || !c.Put(inKey(0, 1), payloadBlock(50)) {
		t.Fatal("entries within budget rejected")
	}
	st := c.Stats()
	if st.Evictions != 0 || st.BytesUsed != 100 || st.Entries != 2 {
		t.Fatalf("at exact budget: %+v", st)
	}
	if c.Put(inKey(0, 2), payloadBlock(1)) {
		t.Fatal("1-byte entry evicted an entry used in this window")
	}
	nextWindow(c)
	c.Get(inKey(0, 1))
	nextWindow(c)
	if !c.Put(inKey(0, 2), payloadBlock(1)) {
		t.Fatal("1-byte entry refused with a stale entry to evict")
	}
	st = c.Stats()
	if st.Evictions != 1 || st.BytesEvicted != 50 || st.BytesUsed != 51 || st.Entries != 2 || st.AdmissionRejected != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	if c.Peek(inKey(0, 0)) || !c.Peek(inKey(0, 1)) || !c.Peek(inKey(0, 2)) {
		t.Fatal("evicted the entry used in the previous window")
	}
}

func TestCacheLRUVictimFollowsAccessOrder(t *testing.T) {
	// Victims go least recently used first, at window granularity: of two
	// stale entries the one last used in the older window goes, whatever
	// the key order says.
	c := NewBlockCache(100)
	c.Put(inKey(0, 0), payloadBlock(50))
	c.Put(inKey(0, 1), payloadBlock(50))
	nextWindow(c)
	if _, ok := c.Get(inKey(0, 0)); !ok {
		t.Fatal("miss on resident entry")
	}
	nextWindow(c)
	nextWindow(c)
	c.Put(inKey(0, 2), payloadBlock(50)) // must evict (0,1), not (0,0)
	if !c.Peek(inKey(0, 0)) || c.Peek(inKey(0, 1)) {
		t.Fatal("eviction ignored access order")
	}
}

func TestCacheHitAfterEvictReloads(t *testing.T) {
	// A key evicted under pressure misses, can be re-inserted, and then
	// hits again — the miss/hit counters see all three phases.
	c := NewBlockCache(64)
	k := inKey(3, 1)
	c.Put(k, payloadBlock(64))
	if _, ok := c.Get(k); !ok {
		t.Fatal("initial hit failed")
	}
	nextWindow(c)
	nextWindow(c)
	c.Put(inKey(9, 9), payloadBlock(64)) // evicts k
	if _, ok := c.Get(k); ok {
		t.Fatal("evicted entry still resident")
	}
	nextWindow(c)
	nextWindow(c)
	c.Put(k, payloadBlock(64)) // reload
	if _, ok := c.Get(k); !ok {
		t.Fatal("reloaded entry missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := NewBlockCache(100)
	c.Put(inKey(0, 0), payloadBlock(60))
	if c.Put(inKey(1, 1), payloadBlock(101)) {
		t.Fatal("entry above whole budget admitted")
	}
	// The resident entry must be untouched: an oversized insert is a
	// rejection, not a flush.
	if !c.Peek(inKey(0, 0)) || c.Stats().Evictions != 0 {
		t.Fatal("oversized insert disturbed residents")
	}
}

func TestCacheZeroBudgetAdmitsNothing(t *testing.T) {
	c := NewBlockCache(0)
	if c.Put(inKey(0, 0), payloadBlock(1)) {
		t.Fatal("zero-budget cache admitted an entry")
	}
	if _, ok := c.Get(inKey(0, 0)); ok {
		t.Fatal("zero-budget cache hit")
	}
}

func TestCacheReplaceUpdatesUsage(t *testing.T) {
	c := NewBlockCache(100)
	k := inKey(2, 2)
	c.Put(k, payloadBlock(80))
	c.Put(k, payloadBlock(30)) // replace, not accumulate
	st := c.Stats()
	if st.Entries != 1 || st.BytesUsed != 30 {
		t.Fatalf("after replace: %+v", st)
	}
}

func TestCachePeekHasNoSideEffects(t *testing.T) {
	c := NewBlockCache(100)
	c.Put(inKey(0, 0), payloadBlock(50))
	c.Put(inKey(0, 1), payloadBlock(50))
	nextWindow(c)
	nextWindow(c)
	for i := 0; i < 10; i++ {
		c.Peek(inKey(0, 0)) // must NOT mark it used
		c.Peek(inKey(7, 7)) // must NOT count a miss
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek touched counters: %+v", st)
	}
	c.Put(inKey(0, 2), payloadBlock(50)) // (0,0) is first in key order
	if c.Peek(inKey(0, 0)) {
		t.Fatal("peeked entry was treated as recently used")
	}
}

func TestCacheStatsSubDeltas(t *testing.T) {
	c := NewBlockCache(100)
	c.Put(inKey(0, 0), payloadBlock(60))
	before := c.Stats()
	c.Get(inKey(0, 0))
	nextWindow(c)
	nextWindow(c)
	c.Get(inKey(1, 1))                   // miss
	c.Put(inKey(1, 1), payloadBlock(60)) // evicts (0,0)
	c.Put(inKey(2, 2), payloadBlock(60)) // refused: (1,1) is fresh
	d := c.Stats().Sub(before)
	if d.Hits != 1 || d.Misses != 1 || d.Evictions != 1 || d.BytesEvicted != 60 || d.AdmissionRejected != 1 {
		t.Fatalf("delta: %+v", d)
	}
	// Residency fields are absolutes, not deltas.
	if d.Entries != 1 || d.BytesUsed != 60 || d.Budget != 100 {
		t.Fatalf("residency: %+v", d)
	}
}

func TestCacheCyclicScanKeepsAdmittedHalf(t *testing.T) {
	// A cyclic scan of n equal blocks through room for n/2 is where LRU
	// hits nothing: each block is evicted just before its reuse. Here the
	// first half is admitted on the first pass and hit on every later one,
	// whether the scan's plan is admitted up front or block by block at
	// Put time.
	const n, size = 8, 64
	keys := make([]BlockKey, n)
	for k := range keys {
		keys[k] = inKey(k, 0)
	}
	sizes := make([]int64, n)
	for k := range sizes {
		sizes[k] = size
	}
	for _, planned := range []bool{true, false} {
		c := NewBlockCache(n / 2 * size)
		for pass := 0; pass < 4; pass++ {
			admitted := keys // every miss is Put when nothing is planned
			if planned {
				_, admitted = c.admitPlan(keys, sizes)
			} else {
				nextWindow(c)
			}
			before := c.Stats()
			for _, key := range keys {
				if _, ok := c.Get(key); !ok && slices.Contains(admitted, key) {
					c.Put(key, payloadBlock(size))
				}
			}
			d := c.Stats().Sub(before)
			if want := int64(min(pass, 1) * n / 2); d.Hits != want || d.Evictions != 0 {
				t.Fatalf("planned=%v pass %d: %d hits, %d evictions; want %d hits, none", planned, pass, d.Hits, d.Evictions, want)
			}
			for k, key := range keys {
				if c.Peek(key) != (k < n/2) {
					t.Fatalf("planned=%v pass %d: block %d resident %v", planned, pass, k, c.Peek(key))
				}
			}
		}
	}
}

func TestCacheNeverEvictsFreshEntries(t *testing.T) {
	// An entry used in this window or the one before survives any insert;
	// the insert is refused and counted instead.
	c := NewBlockCache(100)
	c.Put(inKey(0, 0), payloadBlock(40)) // window 0
	nextWindow(c)
	c.Put(inKey(0, 1), payloadBlock(40)) // window 1
	if c.Put(inKey(0, 2), payloadBlock(40)) {
		t.Fatal("insert evicted an entry of the previous window")
	}
	nextWindow(c) // (0,0) is now stale: its room can be taken, (0,1)'s not
	if !c.Put(inKey(0, 2), payloadBlock(40)) {
		t.Fatal("insert refused with a stale entry to evict")
	}
	if c.Put(inKey(0, 3), payloadBlock(40)) {
		t.Fatal("insert evicted an entry of the previous or current window")
	}
	st := c.Stats()
	if !c.Peek(inKey(0, 1)) || !c.Peek(inKey(0, 2)) || c.Peek(inKey(0, 0)) || st.Evictions != 1 || st.AdmissionRejected != 2 {
		t.Fatalf("residency after pressure: %+v", st)
	}
}

func TestCacheStaleVictimsGoInWindowKeyOrder(t *testing.T) {
	// Victims go oldest window first, ties by key — not by insertion order.
	c := NewBlockCache(50)
	for _, k := range []BlockKey{inKey(3, 0), inKey(1, 0), inKey(4, 0)} { // window 0
		c.Put(k, payloadBlock(10))
	}
	nextWindow(c)
	for _, k := range []BlockKey{inKey(2, 0), inKey(0, 0)} { // window 1
		c.Put(k, payloadBlock(10))
	}
	nextWindow(c)
	nextWindow(c)
	var order []BlockKey
	for n := 0; n < 5; n++ {
		c.Put(BlockKey{Kind: KindOutIndex, I: n}, payloadBlock(10))
		for _, k := range []BlockKey{inKey(0, 0), inKey(1, 0), inKey(2, 0), inKey(3, 0), inKey(4, 0)} {
			if !c.Peek(k) && !slices.Contains(order, k) {
				order = append(order, k)
			}
		}
	}
	want := []BlockKey{inKey(1, 0), inKey(3, 0), inKey(4, 0), inKey(0, 0), inKey(2, 0)}
	if !slices.Equal(order, want) {
		t.Fatalf("eviction order %v, want %v", order, want)
	}
}

func TestCacheHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate")
	}
	s = CacheStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	// Hammer a small cache from many goroutines: correctness here means
	// no races (run under -race) and an invariant-respecting final state.
	c := NewBlockCache(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				k := inKey(w%4, n%16)
				if blk, ok := c.Get(k); ok {
					_ = blk.Bytes()
				} else {
					c.Put(k, payloadBlock(64+n%64))
				}
				c.Peek(inKey(n%4, w))
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesUsed > st.Budget {
		t.Fatalf("over budget after concurrent use: %+v", st)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

func TestBlockKindString(t *testing.T) {
	if KindInBlock.String() != "in-block" || KindOutIndex.String() != "out-index" {
		t.Fatal("kind names")
	}
	if BlockKind(9).String() != "BlockKind(?)" {
		t.Fatal("unknown kind name")
	}
	// Keys must be usable as map keys and format readably.
	if s := fmt.Sprintf("%s (%d,%d)", KindInBlock, 1, 2); s != "in-block (1,2)" {
		t.Fatalf("format: %q", s)
	}
}

// FuzzBlockCache drives random sequences of lookups, inserts, run inserts,
// plan admissions (with their fills and releases) and window advances over a
// budget of a few entries, and checks after every step that the cache holds
// no more than its budget, that each block's runs stay containment-free,
// that no entry used in the current or previous window was evicted — the
// only fresh entries that may leave are runs superseded by their own block's
// payload or by a run containing them — and that every lookup is counted
// once as a hit or a miss.
func FuzzBlockCache(f *testing.F) {
	f.Add([]byte{1, 0, 9, 1, 1, 9, 6, 6, 1, 2, 9, 0, 0, 0})
	f.Add([]byte{4, 3, 7, 8, 9, 5, 1, 0, 6, 4, 3, 7, 8, 9, 5, 1})
	f.Add([]byte{3, 2, 10, 40, 3, 2, 0, 60, 3, 2, 20, 30, 2, 2, 25, 28, 1, 2, 40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const budget = 64
		c := NewBlockCache(budget)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		key := func() BlockKey {
			b := next()
			return BlockKey{Kind: BlockKind(b % 3), I: b / 3 % 2, J: b / 6 % 2}
		}
		var lookups int64
		var pending []BlockKey // the open plan's admitted keys
		var pendingWin int64
		closePlan := func() {
			var unfilled []BlockKey
			for _, k := range pending {
				if next()%2 == 0 {
					c.Put(k, payloadBlock(int(c.reserved[cacheKey{BlockKey: k}].bytes)))
				} else {
					unfilled = append(unfilled, k)
				}
			}
			c.release(pendingWin, unfilled)
			pending = nil
		}
		for len(ops) > 0 {
			before := make(map[cacheKey]int64, len(c.items))
			for k, ent := range c.items {
				before[k] = ent.win
			}
			op, touched := next()%7, BlockKey{}
			switch op {
			case 0:
				c.Get(key())
				lookups++
			case 1:
				touched = key()
				c.Put(touched, payloadBlock(next()%40))
			case 2:
				s, e := uint32(next()%64), uint32(next()%64)
				c.GetRun(next()%2, 0, min(s, e), max(s, e))
				lookups++
			case 3:
				i, s, e := next()%2, uint32(next()%64), uint32(next()%64)
				touched = BlockKey{Kind: KindOutBlock, I: i}
				if e > s {
					c.PutRun(i, 0, s, e, make([]byte, e-s), int64(next()%2*128))
				}
			case 4:
				closePlan()
				plan := make([]BlockKey, next()%4)
				sizes := make([]int64, len(plan))
				for n := range plan { // what a prefetcher plans: in-blocks and out-indices
					plan[n] = key()
					plan[n].Kind %= KindOutBlock
					sizes[n] = int64(next()%45) - 5 // negative: not cacheable
				}
				pendingWin, pending = c.admitPlan(plan, sizes)
			case 5:
				closePlan()
			case 6:
				nextWindow(c)
			}
			if c.used+c.held > budget || c.used < 0 || c.held < 0 {
				t.Fatalf("op %d: %d resident + %d reserved bytes over a budget of %d", op, c.used, c.held, budget)
			}
			for bk, ents := range c.runs {
				for n := 1; n < len(ents); n++ {
					if ents[n].key.s <= ents[n-1].key.s || ents[n].key.e <= ents[n-1].key.e {
						t.Fatalf("op %d: runs of %+v not containment-free: [%d,%d) then [%d,%d)", op, bk,
							ents[n-1].key.s, ents[n-1].key.e, ents[n].key.s, ents[n].key.e)
					}
				}
			}
			for k, win := range before {
				if _, ok := c.items[k]; ok || win < c.window-1 {
					continue
				}
				if superseded := k.e > k.s && k.BlockKey == touched; !superseded {
					t.Fatalf("op %d: %+v, used in window %d, evicted in window %d", op, k, win, c.window)
				}
			}
			if st := c.Stats(); st.Hits+st.Misses != lookups {
				t.Fatalf("op %d: %d hits + %d misses over %d lookups", op, st.Hits, st.Misses, lookups)
			}
		}
	})
}
