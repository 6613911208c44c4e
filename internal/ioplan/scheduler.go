package ioplan

import (
	"time"

	"husgraph/internal/blockstore"
)

// Options configures a Scheduler.
type Options struct {
	// Depth is the prefetch worker count / read-ahead bound of every
	// window the scheduler opens; <= 0 loads inline.
	Depth int
}

// WindowStats summarizes one iteration window at Finish time.
type WindowStats struct {
	// UnusedBytes counts device bytes the window read ahead but never
	// handed to a consumer (an aborted or truncated traversal).
	UnusedBytes int64
	// Stall is the wall time consumers spent blocked on reads that had
	// not completed when requested.
	Stall time.Duration
}

// Scheduler opens one prefetch window per iteration over that iteration's
// read plan, at the run's read-ahead depth and over the run's cache. The
// engine calls DualStore.NewPrefetcher itself; perfbench/trace.go's probe
// is the one caller left.
type Scheduler struct {
	ds    *blockstore.DualStore
	cache *blockstore.BlockCache
	depth int
}

// NewScheduler creates a scheduler over ds. cache may be nil.
func NewScheduler(ds *blockstore.DualStore, cache *blockstore.BlockCache, opts Options) *Scheduler {
	return &Scheduler{ds: ds, cache: cache, depth: opts.Depth}
}

// Begin opens the window for one iteration: a prefetch pipeline over plan,
// the iteration's ordered read plan. live is a ROP plan's block extents
// (DualStore.Extent per block, at i·P+j), which load each out-index as the
// page span they name; nil loads whole blobs. Consume the window with Next (plan order, single
// consumer) or Take (by key, concurrent consumers) and hand it to Finish.
func (s *Scheduler) Begin(plan []blockstore.BlockKey, live []blockstore.Extent) *blockstore.Prefetcher {
	return s.ds.NewPrefetcher(plan, live, s.depth, s.cache)
}

// Finish closes the window — every device charge of its pipeline has landed
// when it returns — and reports its read-ahead waste and stall time. Call
// exactly once per Begin, after the executor is done consuming (on success
// or error).
func (s *Scheduler) Finish(w *blockstore.Prefetcher) WindowStats {
	w.Close()
	return WindowStats{UnusedBytes: w.UnusedBytes(), Stall: w.StallTime()}
}

// Shutdown does nothing; perfbench/trace.go calls it.
func (s *Scheduler) Shutdown() {}
