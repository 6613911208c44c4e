package blockstore

import (
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"

	"husgraph/internal/storage"
)

// eqBytes compares slice contents treating nil and empty as equal (loaders
// and cache promotion legitimately differ there).
func eqBytes(a, b []byte) bool { return string(a) == string(b) }

// prefetchStore materializes the paper example at P=2 in the given format.
// The mixed build must hold a compressed in-block, or the tests built on it
// would compare raw with raw.
func prefetchStore(t *testing.T, f Format) *DualStore {
	t.Helper()
	ds, err := BuildOpts(memStore(), paperGraph(), Options{P: 2, Format: f, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range inBlockSchedule(ds) {
		if f == FormatRaw || ds.InCodec(key.I, key.J) == CodecVarint {
			return ds
		}
	}
	t.Fatal("mixed paper-example store compressed nothing")
	return nil
}

// inBlockSchedule lists every in-block column-major (COP's traversal);
// outIndexSchedule lists every out-index row-major (ROP's traversal).
func inBlockSchedule(ds *DualStore) []BlockKey {
	var s []BlockKey
	for j := 0; j < ds.Layout.P; j++ {
		for i := 0; i < ds.Layout.P; i++ {
			s = append(s, BlockKey{Kind: KindInBlock, I: i, J: j})
		}
	}
	return s
}

func outIndexSchedule(ds *DualStore) []BlockKey {
	var s []BlockKey
	for i := 0; i < ds.Layout.P; i++ {
		for j := 0; j < ds.Layout.P; j++ {
			s = append(s, BlockKey{Kind: KindOutIndex, I: i, J: j})
		}
	}
	return s
}

func TestPrefetchMatchesSyncLoadsAllDepths(t *testing.T) {
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds := prefetchStore(t, format)
		sc := new(Scratch)
		for _, depth := range []int{0, 1, 2, 4} {
			pf := ds.NewPrefetcher(inBlockSchedule(ds), nil, nil, depth, nil)
			for _, key := range inBlockSchedule(ds) {
				res := pf.Next()
				if res.Err != nil {
					t.Fatalf("format=%v depth=%d %v(%d,%d): %v", format, depth, key.Kind, key.I, key.J, res.Err)
				}
				if res.Key != key {
					t.Fatalf("depth=%d: got key %+v, want %+v", depth, res.Key, key)
				}
				payload, err := ds.LoadInBlockScratch(key.I, key.J, sc)
				if err != nil {
					t.Fatal(err)
				}
				if !eqBytes(res.Payload, payload) {
					t.Fatalf("format=%v depth=%d (%d,%d): prefetched views differ from sync load", format, depth, key.I, key.J)
				}
				res.Release()
			}
			pf.Close()
			if pf.UnusedBytes() != 0 {
				t.Fatalf("depth=%d: fully-consumed pipeline reported %d unused bytes", depth, pf.UnusedBytes())
			}
		}
	}
}

func TestPrefetchTakeConcurrentConsumers(t *testing.T) {
	// ROP's consumption shape: concurrent workers each take their keys
	// while together draining the whole schedule. Every result must match
	// the synchronous load, at depths both below and above the consumer
	// count.
	ds := prefetchStore(t, FormatRaw)
	sched := outIndexSchedule(ds)
	for _, depth := range []int{0, 1, 2, 8} {
		pf := ds.NewPrefetcher(sched, nil, nil, depth, nil)
		var wg sync.WaitGroup
		errs := make([]error, len(sched))
		for k, key := range sched {
			wg.Add(1)
			go func(k int, key BlockKey) {
				defer wg.Done()
				res := pf.Take(key)
				if res.Err != nil {
					errs[k] = res.Err
					return
				}
				sc := new(Scratch)
				want, err := ds.LoadOutIndexScratch(key.I, key.J, sc)
				if err == nil && !eqBytes(res.Payload, want) {
					err = errors.New("prefetched out-index differs from sync load")
				}
				errs[k] = err
				res.Release()
			}(k, key)
		}
		wg.Wait()
		pf.Close()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("depth=%d key %d: %v", depth, k, err)
			}
		}
	}
}

func TestPrefetchRejectsOffScheduleConsumption(t *testing.T) {
	ds := prefetchStore(t, FormatRaw)
	sched := inBlockSchedule(ds)[:1]
	pf := ds.NewPrefetcher(sched, nil, nil, 1, nil)
	defer pf.Close()
	if res := pf.Take(BlockKey{Kind: KindOutIndex, I: 0, J: 0}); res.Err == nil {
		t.Fatal("Take of unscheduled key succeeded")
	}
	if res := pf.Next(); res.Err != nil {
		t.Fatal(res.Err)
	} else {
		res.Release()
	}
	if res := pf.Next(); res.Err == nil {
		t.Fatal("Next past schedule end succeeded")
	}
}

// faultyDual builds a store and reopens it behind a FaultStore so tests
// inject faults only into post-build reads.
func faultyDual(t *testing.T, seed int64) (*DualStore, *storage.FaultStore) {
	t.Helper()
	mem := memStore()
	if _, err := BuildOpts(mem, paperGraph(), Options{P: 2, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, seed)
	ds, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	return ds, fs
}

func TestPrefetchWorkersRetryTransientFaults(t *testing.T) {
	// Transient read faults landing inside prefetch workers must be ridden
	// out by the store's retry/backoff policy — same semantics as the
	// synchronous path — and counted on the store.
	ds, fs := faultyDual(t, 1)
	ds.SetRetryPolicy(RetryPolicy{MaxRetries: 3, Backoff: time.Microsecond})
	fs.Inject(
		storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/", After: 1, Count: 2},
	)
	pf := ds.NewPrefetcher(inBlockSchedule(ds), nil, nil, 2, nil)
	defer pf.Close()
	for range inBlockSchedule(ds) {
		res := pf.Next()
		if res.Err != nil {
			t.Fatalf("transient fault not absorbed by worker retry: %v", res.Err)
		}
		res.Release()
	}
	if got := ds.Retries(); got != 2 {
		t.Fatalf("store retries = %d, want 2", got)
	}
	if c := fs.Counters(); c.Transient != 2 {
		t.Fatalf("fault counters: %+v", c)
	}
}

func TestPrefetchTransientBurstExceedingBudgetFails(t *testing.T) {
	ds, fs := faultyDual(t, 1)
	ds.SetRetryPolicy(RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/", After: 0, Count: 10})
	pf := ds.NewPrefetcher(inBlockSchedule(ds), nil, nil, 2, nil)
	defer pf.Close()
	var firstErr error
	for range inBlockSchedule(ds) {
		res := pf.Next()
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		res.Release()
	}
	if !errors.Is(firstErr, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped storage.ErrTransient", firstErr)
	}
}

func TestPrefetchPermanentFaultSurfacesEverywhere(t *testing.T) {
	// A permanent fault aborts the pipeline: the failing block's consumer
	// sees the error, and — critically — every later consumer is failed
	// with the same root cause instead of blocking forever. The test
	// finishing at all is the no-hang assertion (go test would time out).
	for _, depth := range []int{1, 2, 8} {
		ds, fs := faultyDual(t, 1)
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, Name: "ib/", After: 1})
		sched := inBlockSchedule(ds)
		pf := ds.NewPrefetcher(sched, nil, nil, depth, nil)
		var failed int
		for range sched {
			res := pf.Next()
			if res.Err != nil {
				if !errors.Is(res.Err, storage.ErrPermanent) {
					t.Fatalf("depth=%d: error chain lost the cause: %v", depth, res.Err)
				}
				failed++
			}
			res.Release()
		}
		pf.Close()
		if failed == 0 {
			t.Fatalf("depth=%d: permanent fault never surfaced", depth)
		}
	}
}

func TestPrefetchCloseReclaimsUnconsumedReadAhead(t *testing.T) {
	// Consume one block, let the pipeline read ahead, then abandon it:
	// Close must reclaim the delivered-but-unconsumed results and report
	// their bytes as wasted read-ahead.
	ds := prefetchStore(t, FormatRaw)
	sched := inBlockSchedule(ds)
	dev := ds.Device()
	before := dev.Stats().ReadBytes()
	pf := ds.NewPrefetcher(sched, nil, nil, 2, nil)
	// Wait until the workers have demonstrably read ahead (device charges
	// land before delivery, and Close joins the workers, so every claimed
	// block is drained as unused).
	deadline := time.Now().Add(5 * time.Second)
	for dev.Stats().ReadBytes() == before {
		if time.Now().After(deadline) {
			t.Fatal("workers never read ahead")
		}
		time.Sleep(time.Millisecond)
	}
	pf.Close()
	if pf.UnusedBytes() <= 0 {
		t.Fatalf("UnusedBytes = %d, want > 0 after abandoning read-ahead", pf.UnusedBytes())
	}
}

func TestPrefetchCachePromotionServesRepeatsWithoutIO(t *testing.T) {
	// First pass misses and promotes every block; a second pass over the
	// same schedule must be all hits and charge the device nothing.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		for _, depth := range []int{0, 2} {
			ds := prefetchStore(t, format)
			cache := NewBlockCache(64 << 20)
			sched := inBlockSchedule(ds)

			run := func() {
				pf := ds.NewPrefetcher(sched, nil, nil, depth, cache)
				defer pf.Close()
				for _, key := range sched {
					res := pf.Next()
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if res.Key != key {
						t.Fatalf("key order: got %+v want %+v", res.Key, key)
					}
					res.Release()
				}
			}

			run()
			afterFirst := ds.Device().Stats().ReadBytes()
			st := cache.Stats()
			if st.Misses != int64(len(sched)) || st.Entries == 0 {
				t.Fatalf("format=%v depth=%d first pass: %+v", format, depth, st)
			}

			run()
			if got := ds.Device().Stats().ReadBytes(); got != afterFirst {
				t.Fatalf("format=%v depth=%d: cached pass read %d more bytes", format, depth, got-afterFirst)
			}
			st = cache.Stats()
			if st.Hits != int64(len(sched)) {
				t.Fatalf("format=%v depth=%d second pass: %+v", format, depth, st)
			}
		}
	}
}

func TestPrefetchCachedResultsMatchScratchLoads(t *testing.T) {
	// The promoted copies served on hits must be byte-identical to direct
	// loads — a corrupted promotion would silently poison every later
	// iteration. And a cached block is held as stored, so each store's cache
	// is charged its stored in-blocks, a mixed store's less than their raw
	// records.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds := prefetchStore(t, format)
		cache := NewBlockCache(64 << 20)
		cachedSweepMatchesDirectLoads(t, ds, cache)
		var stored, raw int64
		for _, key := range inBlockSchedule(ds) {
			stored += ds.InBlockBytes[key.I][key.J]
			raw += ds.BlockEdgeCount[key.I][key.J] * int64(RawRecordBytes(ds.Weighted))
		}
		if used := cache.Stats().BytesUsed; used != stored || format == FormatMixed && stored >= raw {
			t.Fatalf("%v: cache charged %d bytes for blocks stored in %d, %d raw", format, used, stored, raw)
		}
	}
}

func cachedSweepMatchesDirectLoads(t *testing.T, ds *DualStore, cache *BlockCache) {
	sched := inBlockSchedule(ds)
	for pass := 0; pass < 2; pass++ {
		pf := ds.NewPrefetcher(sched, nil, nil, 2, cache)
		sc := new(Scratch)
		for _, key := range sched {
			res := pf.Next()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if pass == 1 && !res.Cached {
				t.Fatalf("pass 2 (%d,%d): expected a cache hit", key.I, key.J)
			}
			// The cache holds every block as stored.
			payload, err := ds.LoadInBlockScratch(key.I, key.J, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !eqBytes(res.Payload, payload) {
				t.Fatalf("pass %d (%d,%d): cached views differ from direct load", pass+1, key.I, key.J)
			}
			res.Release()
		}
		pf.Close()
	}
}

func TestPrefetchCopiesNoRefusedBlock(t *testing.T) {
	// Admission is decided once, when the pipeline opens: a refused block is
	// served from its scratch with no copy and no Put, and an admitted one
	// is cached at exactly the charge the meta predicted.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		for _, depth := range []int{0, 2} {
			ds := prefetchStore(t, format)
			sched := inBlockSchedule(ds)
			sizer := ds.NewPrefetcher(nil, nil, nil, 0, nil)
			sizes := make([]int64, len(sched))
			var total int64
			for n, key := range sched {
				sizes[n] = sizer.entryBytes(key)
				total += sizes[n]
			}
			cache := NewBlockCache(total / 2)
			pf := ds.NewPrefetcher(sched, nil, nil, depth, cache)
			var admitted, refused int
			for n, key := range sched {
				res := pf.Next()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				switch {
				case pf.reqs[n].admit:
					admitted++
					blk := resident(cache, key)
					if blk == nil || unsafe.SliceData(res.Payload) != unsafe.SliceData(blk.Payload) {
						t.Fatalf("%v depth=%d: admitted %+v not served from the cache", format, depth, key)
					}
					if got := blk.Bytes(); got != sizes[n] {
						t.Fatalf("%v depth=%d: %+v charged %d bytes, the meta predicted %d", format, depth, key, got, sizes[n])
					}
				case res.sc == nil || cache.Peek(key):
					t.Fatalf("%v depth=%d: refused %+v was copied into the cache", format, depth, key)
				case sizes[n] <= total/2:
					refused++
				}
				res.Release()
			}
			pf.Close()
			st := cache.Stats()
			if admitted == 0 || admitted == len(sched) {
				t.Fatalf("%v depth=%d: %d of %d blocks admitted at half the sweep's bytes", format, depth, admitted, len(sched))
			}
			if st.Entries != admitted || st.AdmissionRejected != int64(refused) || cache.held != 0 {
				t.Fatalf("%v depth=%d: %d admitted, %d refused; cache %+v holding %d reserved bytes", format, depth, admitted, refused, st, cache.held)
			}
		}
	}
}
