package blockstore

import (
	"fmt"
	"sync"
	"testing"
)

func payloadBlock(n int) *CachedBlock {
	return &CachedBlock{Payload: make([]byte, n)}
}

func inKey(i, j int) BlockKey { return BlockKey{Kind: KindInBlock, I: i, J: j} }

func TestCachedBlockBytes(t *testing.T) {
	b := &CachedBlock{
		Payload: make([]byte, 10),
		ByteIdx: make([]uint32, 3),
	}
	if got := b.Bytes(); got != 10+3*4 {
		t.Fatalf("Bytes = %d", got)
	}
	// A cached in-block is charged its decoded records plus 8 bytes per
	// destination that has one — the paper example's in-block (0,0) holds
	// 8 edges into 5 destinations — whatever the interval's size.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds := prefetchStore(t, format)
		cache := lruCache(1 << 20)
		pf := ds.NewPrefetcher([]BlockKey{inKey(0, 0)}, nil, 0, cache)
		res := pf.Next()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		res.Release()
		pf.Close()
		blk, ok := cache.Get(inKey(0, 0))
		if !ok {
			t.Fatalf("%v: loaded in-block not cached", format)
		}
		if got, want := blk.Bytes(), int64(8*EdgeBytes+5*InIndexEntryBytes); got != want || ds.InIndexEntries[0][0] != 5 {
			t.Fatalf("%v: cached in-block charged %d bytes for %d entries, want %d for 5", format, got, ds.InIndexEntries[0][0], want)
		}
	}
}

func TestCacheHoldsExactlyTheBudget(t *testing.T) {
	// Two entries summing to exactly the budget must both stay resident;
	// one more byte anywhere must evict the least-recently-used entry.
	c := lruCache(100)
	if !c.Put(inKey(0, 0), payloadBlock(50)) || !c.Put(inKey(0, 1), payloadBlock(50)) {
		t.Fatal("entries within budget rejected")
	}
	st := c.Stats()
	if st.Evictions != 0 || st.BytesUsed != 100 || st.Entries != 2 {
		t.Fatalf("at exact budget: %+v", st)
	}
	if !c.Put(inKey(0, 2), payloadBlock(1)) {
		t.Fatal("1-byte entry rejected")
	}
	st = c.Stats()
	if st.Evictions != 1 || st.BytesEvicted != 50 || st.BytesUsed != 51 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	// The LRU victim is the oldest entry.
	if c.Peek(inKey(0, 0)) {
		t.Fatal("oldest entry survived eviction")
	}
	if !c.Peek(inKey(0, 1)) || !c.Peek(inKey(0, 2)) {
		t.Fatal("younger entries evicted")
	}
}

func TestCacheLRUVictimFollowsAccessOrder(t *testing.T) {
	c := lruCache(100)
	c.Put(inKey(0, 0), payloadBlock(50))
	c.Put(inKey(0, 1), payloadBlock(50))
	if _, ok := c.Get(inKey(0, 0)); !ok { // bump (0,0) to most recent
		t.Fatal("miss on resident entry")
	}
	c.Put(inKey(0, 2), payloadBlock(50)) // must evict (0,1), not (0,0)
	if !c.Peek(inKey(0, 0)) || c.Peek(inKey(0, 1)) {
		t.Fatal("eviction ignored LRU order")
	}
}

func TestCacheHitAfterEvictReloads(t *testing.T) {
	// A key evicted under pressure misses, can be re-inserted, and then
	// hits again — the miss/hit counters see all three phases.
	c := lruCache(64)
	k := inKey(3, 1)
	c.Put(k, payloadBlock(64))
	if _, ok := c.Get(k); !ok {
		t.Fatal("initial hit failed")
	}
	c.Put(inKey(9, 9), payloadBlock(64)) // evicts k
	if _, ok := c.Get(k); ok {
		t.Fatal("evicted entry still resident")
	}
	c.Put(k, payloadBlock(64)) // reload
	if _, ok := c.Get(k); !ok {
		t.Fatal("reloaded entry missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := lruCache(100)
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
	c := lruCache(0)
	if c.Put(inKey(0, 0), payloadBlock(1)) {
		t.Fatal("zero-budget cache admitted an entry")
	}
	if _, ok := c.Get(inKey(0, 0)); ok {
		t.Fatal("zero-budget cache hit")
	}
}

func TestCacheReplaceUpdatesUsage(t *testing.T) {
	c := lruCache(100)
	k := inKey(2, 2)
	c.Put(k, payloadBlock(80))
	c.Put(k, payloadBlock(30)) // replace, not accumulate
	st := c.Stats()
	if st.Entries != 1 || st.BytesUsed != 30 {
		t.Fatalf("after replace: %+v", st)
	}
}

func TestCachePeekHasNoSideEffects(t *testing.T) {
	c := lruCache(100)
	c.Put(inKey(0, 0), payloadBlock(50))
	c.Put(inKey(0, 1), payloadBlock(50))
	for i := 0; i < 10; i++ {
		c.Peek(inKey(0, 0)) // must NOT bump LRU position
		c.Peek(inKey(7, 7)) // must NOT count a miss
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek touched counters: %+v", st)
	}
	c.Put(inKey(0, 2), payloadBlock(50))
	if c.Peek(inKey(0, 0)) {
		t.Fatal("peeked entry was treated as recently used")
	}
}

func TestCacheStatsSubDeltas(t *testing.T) {
	c := lruCache(100)
	c.Put(inKey(0, 0), payloadBlock(60))
	c.Get(inKey(0, 0))
	before := c.Stats()
	c.Get(inKey(0, 0))
	c.Get(inKey(1, 1))                   // miss
	c.Put(inKey(1, 1), payloadBlock(60)) // evicts (0,0)
	d := c.Stats().Sub(before)
	if d.Hits != 1 || d.Misses != 1 || d.Evictions != 1 || d.BytesEvicted != 60 {
		t.Fatalf("delta: %+v", d)
	}
	// Residency fields are absolutes, not deltas.
	if d.Entries != 1 || d.BytesUsed != 60 || d.Budget != 100 {
		t.Fatalf("residency: %+v", d)
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
	c := lruCache(1024)
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
