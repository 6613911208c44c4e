package core

import (
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// IterStats records one iteration of an engine run: what the predictor saw,
// which model ran, and what it cost. Its fields are barrier-published:
// written only by the coordinator between iteration begin/finish (workers
// report through atomics that the coordinator folds in at the barrier), so
// any plain write reachable from a spawned goroutine is a race — one `go
// test -race` reports, since every engine test drives these fields.
type IterStats struct {
	// Iter is the zero-based iteration number.
	Iter int
	// ActiveVertices and ActiveEdges describe the frontier entering the
	// iteration (active edges = out-edges of active vertices, as in
	// Fig. 1).
	ActiveVertices int
	ActiveEdges    int64
	// Model is the update model executed.
	Model Model
	// PredictedROP and PredictedCOP are the predictor's cost estimates
	// (§3.4); zero when the α shortcut or a forced model skipped
	// prediction.
	PredictedROP time.Duration
	PredictedCOP time.Duration
	// IO is the device traffic of this iteration.
	IO storage.Stats
	// IOTime is the simulated device time of this iteration.
	IOTime time.Duration
	// ComputeTime is the measured wall-clock processing time on the host
	// (diagnostic only; the host's core count and GC do not affect
	// Runtime).
	ComputeTime time.Duration
	// ComputeModeled prices the iteration's computation for the paper's
	// 16-core testbed (see ModeledComputeTime).
	ComputeModeled time.Duration
	// Runtime is the modeled iteration time: max(IOTime, ComputeModeled),
	// since the engine overlaps CPU processing and disk I/O (§3.5). It
	// does not depend on Config.PrefetchDepth.
	Runtime time.Duration
	// DecodeTime is always 0: COP folds a compressed in-block as stored,
	// parsing its deltas in the edge loop, so nothing is decoded apart from
	// the fold (a compressed block is counted in DecodedBytes and
	// CompressedBytes). It stays until the
	// benchmark stops reading it into blockstore.decode_s.
	DecodeTime time.Duration
	// DecodedBytes and CompressedBytes count the compressed in-blocks of
	// this iteration: the bytes their records would take and the stored
	// bytes the fold reads instead — DualStore.InDecodeBytes summed over a
	// COP iteration's plan, cached blocks included, since the cache holds
	// them as stored. Their ratio is the realized compression ratio of the
	// touched working set. Neither is priced: a compressed edge costs
	// ComputeModeled what a raw one does.
	DecodedBytes    int64
	CompressedBytes int64
	// MaxDelta is the largest per-vertex value change (Additive programs
	// only; used for Tolerance convergence).
	MaxDelta float64
	// Retries counts transient read faults retried by the store during
	// this iteration (see Config.ReadRetries). Drive reads it off the store
	// lineage's counter around the iteration, so it is exact at any shard
	// count.
	Retries int64
	// CacheHits, CacheMisses and CacheEvictions count block-cache
	// activity during this iteration (zero when Config.CacheBudgetBytes
	// is 0).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// PrefetchUnusedBytes counts bytes the prefetch pipeline read ahead
	// but discarded unconsumed (an aborted or truncated traversal).
	PrefetchUnusedBytes int64
	// PrefetchStall is the wall time consumers spent blocked on reads
	// that had not completed when requested — the residual I/O latency
	// the pipeline failed to hide.
	PrefetchStall time.Duration

	// Bucketed-execution fields, filled by Drive from its bucket router
	// only when the program implements PriorityProgram (zero otherwise). Bucketed marks the iteration as
	// bucket-driven; BucketPri is the priority of the bucket processed as
	// this iteration's frontier; BucketPending counts the vertices still
	// parked in later buckets at the iteration's start — work the run
	// holds beyond the visible frontier.
	Bucketed      bool
	BucketPri     int64
	BucketPending int

	// Sharded-execution fields, filled by the internal/shard coordinator
	// and zero for unsharded runs (K=1 is the identity case: no merge, no
	// skew). A sharded iteration's Runtime is the slowest shard's Runtime
	// plus MergeTime.
	//
	// MergeTime is the modeled cost of OR-merging the K frontier pieces at
	// the barrier (modeled, not measured, so replays stay deterministic).
	MergeTime time.Duration
	// ShardSkew is max/mean of the per-shard modeled Runtime — 1.0 when
	// the shards' walls are perfectly balanced, growing with imbalance.
	// Zero for unsharded runs.
	ShardSkew float64
	// Shards holds the per-shard iteration statistics this combined
	// iteration was folded from (nil for unsharded runs and K=1).
	Shards []ShardIterStats
}

// ShardIterStats is one shard's view of one iteration of a sharded run:
// the shard index plus the IterStats its owner-scoped engine produced.
// Run-level fields — Retries and the bucket fields — stay zero
// here: the shards share one store lineage and one bucket router, and Drive
// fills them on the combined IterStats only.
type ShardIterStats struct {
	Shard int
	Stats IterStats
}

// RecoveryStats reports what the durability machinery did during a run:
// how many transient faults were ridden out and what Resume recovered.
type RecoveryStats struct {
	// Retries is the total number of transient-fault read retries issued
	// across the run, including those spent loading the checkpoint.
	Retries int64
	// CheckpointFallbacks counts checkpoint generations skipped during
	// Resume because they were missing a valid checksum frame, truncated,
	// or failed decoding — each one is a crash the run survived.
	CheckpointFallbacks int
	// ResumedIter is the iteration the run resumed from (0 when the run
	// started fresh).
	ResumedIter int
	// CheckpointsWritten counts checkpoints persisted during the run,
	// including a best-effort final checkpoint on cancellation.
	CheckpointsWritten int
}

// Result summarizes a completed run.
type Result struct {
	// Values holds the final vertex values.
	Values []float64
	// Iterations holds per-iteration statistics in order.
	Iterations []IterStats
	// Converged reports whether the run stopped because the frontier
	// drained (Monotone) or the tolerance was met (Additive), rather than
	// hitting MaxIters.
	Converged bool
	// Recovery summarizes retried faults and checkpoint recovery.
	Recovery RecoveryStats
	// Cache is the final block-cache snapshot (zero value when caching is
	// disabled): cumulative hits/misses/evictions and end-of-run
	// residency.
	Cache blockstore.CacheStats
	// PrefetchUnusedBytes totals the per-iteration unused read-ahead.
	PrefetchUnusedBytes int64
}

// TotalRetries returns the summed per-iteration transient-fault retries.
func (r *Result) TotalRetries() int64 {
	var t int64
	for _, it := range r.Iterations {
		t += it.Retries
	}
	return t
}

// NumIterations returns the number of iterations executed.
func (r *Result) NumIterations() int { return len(r.Iterations) }

// TotalIO returns the summed device traffic across iterations.
func (r *Result) TotalIO() storage.Stats {
	var t storage.Stats
	for _, it := range r.Iterations {
		t = t.Add(it.IO)
	}
	return t
}

// TotalRuntime returns the summed modeled runtime across iterations.
func (r *Result) TotalRuntime() time.Duration {
	var t time.Duration
	for _, it := range r.Iterations {
		t += it.Runtime
	}
	return t
}

// TotalIOTime returns the summed simulated I/O time.
func (r *Result) TotalIOTime() time.Duration {
	var t time.Duration
	for _, it := range r.Iterations {
		t += it.IOTime
	}
	return t
}

// TotalComputeModeled returns the summed modeled compute time (the
// quantity Runtime uses).
func (r *Result) TotalComputeModeled() time.Duration {
	var t time.Duration
	for _, it := range r.Iterations {
		t += it.ComputeModeled
	}
	return t
}

// TotalDecodedBytes returns the summed logical bytes produced by
// non-trivial codec decodes across iterations.
func (r *Result) TotalDecodedBytes() int64 {
	var t int64
	for _, it := range r.Iterations {
		t += it.DecodedBytes
	}
	return t
}

// TotalCompressedBytes returns the summed stored bytes fed to
// non-trivial codec decodes across iterations.
func (r *Result) TotalCompressedBytes() int64 {
	var t int64
	for _, it := range r.Iterations {
		t += it.CompressedBytes
	}
	return t
}

// TotalExchangeBytes returns 0: the shards share their arrays and exchange
// nothing; perfbench/child.go calls it.
func (r *Result) TotalExchangeBytes() int64 { return 0 }

// TotalMergeTime returns the summed modeled frontier-merge time of a
// sharded run (zero for unsharded runs).
func (r *Result) TotalMergeTime() time.Duration {
	var t time.Duration
	for _, it := range r.Iterations {
		t += it.MergeTime
	}
	return t
}

// MaxShardSkew returns the worst per-iteration shard skew of a sharded run
// (zero for unsharded runs).
func (r *Result) MaxShardSkew() float64 {
	var m float64
	for _, it := range r.Iterations {
		if it.ShardSkew > m {
			m = it.ShardSkew
		}
	}
	return m
}

// ModelCounts returns how many iterations ran each model.
func (r *Result) ModelCounts() (rop, cop int) {
	for _, it := range r.Iterations {
		if it.Model == ModelROP {
			rop++
		} else {
			cop++
		}
	}
	return rop, cop
}
