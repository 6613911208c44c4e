package blockstore

import "testing"

// Run-granular caching and whole-block promotion tests.

func outBlockKey(i, j int) BlockKey { return BlockKey{Kind: KindOutBlock, I: i, J: j} }

func runBytes(s, e uint32) []byte {
	b := make([]byte, e-s)
	for i := range b {
		b[i] = byte(s + uint32(i))
	}
	return b
}

func TestRunCacheServesContainedRanges(t *testing.T) {
	c := NewBlockCache(1 << 20)
	if c.PutRun(0, 0, 100, 200, runBytes(100, 200), 1<<20) {
		t.Fatal("1%% density promoted")
	}
	// Exact and strictly-contained queries hit and return the right bytes.
	for _, q := range [][2]uint32{{100, 200}, {120, 180}, {100, 101}, {199, 200}} {
		got, ok := c.GetRun(0, 0, q[0], q[1])
		if !ok {
			t.Fatalf("run [%d,%d) missed", q[0], q[1])
		}
		for n, b := range got {
			if b != byte(q[0]+uint32(n)) {
				t.Fatalf("run [%d,%d): wrong bytes at %d", q[0], q[1], n)
			}
		}
	}
	// Overlapping-but-not-contained and disjoint queries miss.
	for _, q := range [][2]uint32{{90, 150}, {150, 250}, {300, 400}} {
		if _, ok := c.GetRun(0, 0, q[0], q[1]); ok {
			t.Fatalf("uncovered run [%d,%d) hit", q[0], q[1])
		}
	}
	// A different block's runs are invisible.
	if _, ok := c.GetRun(1, 0, 120, 180); ok {
		t.Fatal("run hit crossed blocks")
	}
	if got := c.RunBytesResident(0, 0); got != 100 {
		t.Fatalf("RunBytesResident = %d", got)
	}
	st := c.Stats()
	if st.RunHits != 4 || st.RunMisses != 4 {
		t.Fatalf("run counters: %+v", st)
	}
	// Run lookups are a subset of the whole-cache counters.
	if st.Hits != st.RunHits || st.Misses != st.RunMisses {
		t.Fatalf("run counters not folded into totals: %+v", st)
	}
}

func TestRunCacheStaysContainmentFree(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.PutRun(0, 0, 100, 200, runBytes(100, 200), 1<<30)
	c.PutRun(0, 0, 300, 400, runBytes(300, 400), 1<<30)
	entries := c.Stats().Entries
	// A range existing entries already cover is skipped, not duplicated.
	c.PutRun(0, 0, 120, 180, runBytes(120, 180), 1<<30)
	if got := c.Stats().Entries; got != entries {
		t.Fatalf("covered insert changed entries: %d -> %d", entries, got)
	}
	// A range containing resident runs supersedes them.
	c.PutRun(0, 0, 50, 450, runBytes(50, 450), 1<<30)
	if got := c.RunBytesResident(0, 0); got != 400 {
		t.Fatalf("resident after supersede = %d, want 400", got)
	}
	if got, ok := c.GetRun(0, 0, 350, 360); !ok || got[0] != byte(350&0xff) {
		t.Fatal("superseding run does not serve old ranges")
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("supersession counted as eviction")
	}
}

func TestRunCachePromotionClaimedExactlyOnce(t *testing.T) {
	c := NewBlockCache(1 << 20)
	const blockBytes = 1000
	if c.PutRun(2, 3, 0, 300, runBytes(0, 300), blockBytes) {
		t.Fatal("30% density promoted early")
	}
	// Density accumulates across loads; crossing promoteDensity (0.5)
	// claims the promotion exactly once.
	if !c.PutRun(2, 3, 500, 750, runBytes(500, 750), blockBytes) {
		t.Fatal("55% density did not promote")
	}
	if c.PutRun(2, 3, 800, 900, runBytes(800, 900), blockBytes) {
		t.Fatal("promotion claimed twice")
	}
	if st := c.Stats(); st.Promotions != 1 {
		t.Fatalf("Promotions = %d", st.Promotions)
	}
	// The caller completes the claim: Put the whole payload, which
	// supersedes the run entries without counting evictions.
	whole := runBytes(0, blockBytes)
	if !c.Put(outBlockKey(2, 3), &CachedBlock{Payload: whole}) {
		t.Fatal("promoted payload rejected")
	}
	if got := c.RunBytesResident(2, 3); got != 0 {
		t.Fatalf("run bytes survived promotion: %d", got)
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("promotion counted evictions")
	}
	// Every range is now served from the payload, including ones no run
	// ever covered.
	if got, ok := c.GetRun(2, 3, 400, 410); !ok || got[0] != byte(400&0xff) {
		t.Fatal("promoted payload does not serve arbitrary runs")
	}
	// Later PutRun calls are no-ops while the payload is resident.
	entries := c.Stats().Entries
	c.PutRun(2, 3, 10, 20, runBytes(10, 20), blockBytes)
	if got := c.Stats().Entries; got != entries {
		t.Fatal("run inserted alongside whole payload")
	}
}

func TestRunCachePromotionNeverExceedsBudget(t *testing.T) {
	// Regression: the promotion-claiming PutRun used to insert its own run
	// entry too, transiently charging both the accumulated runs and (after
	// the caller's Put) the whole payload — overshooting the budget and
	// evicting unrelated hot entries for bytes dropped moments later.
	c := NewBlockCache(100)
	hot := BlockKey{Kind: KindInBlock, I: 5, J: 5}
	if !c.Put(hot, &CachedBlock{Payload: make([]byte, 10)}) {
		t.Fatal("hot entry rejected")
	}

	const blockBytes = 80 // promotion threshold at 40 loaded bytes
	if c.PutRun(0, 0, 0, 39, runBytes(0, 39), blockBytes) {
		t.Fatal("49% density promoted early")
	}
	// This load crosses the density threshold: the claim must not charge
	// the triggering run (10 hot + 39 + 55 would burst past the budget).
	if !c.PutRun(0, 0, 100, 155, runBytes(100, 155), blockBytes) {
		t.Fatal("117% density did not promote")
	}
	if st := c.Stats(); st.BytesUsed > st.Budget {
		t.Fatalf("promotion claim charged %d bytes against budget %d", st.BytesUsed, st.Budget)
	}
	// The caller completes the claim; run entries are dropped before the
	// payload is charged, so the whole sequence fits.
	if !c.Put(outBlockKey(0, 0), &CachedBlock{Payload: runBytes(0, blockBytes)}) {
		t.Fatal("promoted payload rejected")
	}
	st := c.Stats()
	if st.BytesUsed > st.Budget {
		t.Fatalf("peak charged bytes %d exceeds budget %d", st.BytesUsed, st.Budget)
	}
	if st.Evictions != 0 {
		t.Fatalf("promotion evicted %d unrelated entries", st.Evictions)
	}
	if _, ok := c.Get(hot); !ok {
		t.Fatal("unrelated hot entry evicted by transient promotion overcharge")
	}
}
