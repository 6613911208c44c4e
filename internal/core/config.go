package core

import (
	"fmt"
	"runtime"
	"time"
)

// Model identifies an update model.
type Model int

const (
	// ModelHybrid selects between ROP and COP each iteration using the
	// I/O-based performance prediction method (§3.4) — the paper's
	// default.
	ModelHybrid Model = iota
	// ModelROP forces Row-oriented Push in every iteration.
	ModelROP
	// ModelCOP forces Column-oriented Pull in every iteration.
	ModelCOP
)

// String names the model as in the paper's figures.
func (m Model) String() string {
	switch m {
	case ModelHybrid:
		return "Hybrid"
	case ModelROP:
		return "ROP"
	case ModelCOP:
		return "COP"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel parses "hybrid", "rop" or "cop" (case-insensitive enough for
// CLI use).
func ParseModel(s string) (Model, error) {
	switch s {
	case "hybrid", "Hybrid", "auto":
		return ModelHybrid, nil
	case "rop", "ROP", "push":
		return ModelROP, nil
	case "cop", "COP", "pull":
		return ModelCOP, nil
	default:
		return ModelHybrid, fmt.Errorf("core: unknown model %q (want hybrid|rop|cop)", s)
	}
}

// DefaultAlpha is the paper's empirical threshold: the ROP/COP cost
// comparison is only evaluated while active vertices are below 5% of |V|
// (§3.4); above it COP is selected unconditionally.
const DefaultAlpha = 0.05

// retryJitter scatters each retry backoff over ±20 % of its nominal value,
// so concurrent prefetch workers don't retry a recovering device in
// lockstep.
const retryJitter = 0.2

// Config controls an engine run.
type Config struct {
	// Threads is the worker-thread count (§3.5); 0 means GOMAXPROCS.
	Threads int
	// Model forces an update model; ModelHybrid enables prediction.
	Model Model
	// Alpha overrides the active-fraction threshold; 0 means DefaultAlpha.
	// Negative values disable the shortcut (always compare costs).
	Alpha float64
	// MaxIters bounds the iteration count; 0 means run to convergence
	// (with a safety cap).
	MaxIters int
	// Tolerance, if positive, stops Additive programs once the largest
	// per-vertex value change in an iteration falls below it.
	Tolerance float64
	// CheckpointEvery persists a resumable checkpoint (vertex values,
	// frontier, program state) to the store every N iterations; 0
	// disables. Use with Resume for long out-of-core jobs.
	CheckpointEvery int
	// Resume restarts from the program's persisted checkpoint when one
	// exists (otherwise the run starts fresh). Corrupt or truncated
	// checkpoint generations are skipped — the engine falls back to the
	// previous good generation and reports it in Result.Recovery.
	Resume bool
	// ReadRetries re-attempts block/index/aux reads that fail with an
	// error classified transient (storage.ErrTransient) up to this many
	// times each, with exponential backoff; 0 disables retrying and
	// surfaces the first transient fault. Retries are counted in
	// IterStats.Retries and Result.Recovery.
	ReadRetries int
	// RetryBackoff is the sleep before the first retry, doubled on each
	// subsequent retry up to 250ms (or up to RetryBackoff itself when it is
	// larger: the ladder never shrinks) and scattered ±20 % so concurrent
	// prefetch workers don't retry a recovering device in lockstep; 0 with
	// ReadRetries > 0 defaults to 1ms.
	RetryBackoff time.Duration
	// ReadDeadline is a hard timeout on every block/index/aux read attempt:
	// an attempt still unanswered at the deadline fails transient, naming
	// the blob and the deadline, and ReadRetries reissues it like any
	// transient fault. No duplicate read is issued. 0 is off — a hung read
	// then blocks forever. Each attempt under a deadline costs a goroutine, a
	// channel, a timer and a fresh buffer, never the caller's scratch (DESIGN.md §4e).
	ReadDeadline time.Duration
	// PrefetchDepth is the number of asynchronous block-prefetch workers
	// overlapping I/O with compute: while the engine processes a block, up to
	// this many further blocks of the plan are read and verified ahead — a
	// ROP block with its record runs, so this is ROP's record reads in
	// flight. 0 disables asynchronous prefetching — block loads run inline on
	// the consuming worker (a configured cache is still consulted), which is
	// byte- and result-identical to the pipelined configuration.
	PrefetchDepth int
	// CacheBudgetBytes bounds the block cache retained across iterations:
	// in-blocks and out-indices that fit are held as stored, each charged
	// its stored size, and served from memory on re-read, charging no
	// device I/O (GraphMP-style semi-external caching at block
	// granularity); a compressed in-block is decoded as it is folded, hit
	// or miss, and counted so. 0 disables caching;
	// a working set over the budget keeps the part each iteration's plan
	// admitted first, evicting only blocks unused for two iterations
	// (blockstore.BlockCache). Hit/miss/evict counts land in IterStats and
	// Result.Cache. A sharded run splits it in proportion to the in-column
	// bytes each shard owns.
	CacheBudgetBytes int64
	// OnIteration, if set, is called after each iteration completes with
	// that iteration's statistics — for live progress reporting. It runs
	// on the engine goroutine; keep it fast.
	OnIteration func(IterStats)
	// Owner scopes the engine to the contiguous intervals [Lo, Hi): its
	// planners, predictors and executors then cover only those ROP rows,
	// COP columns and finalization sweeps. nil means [0, P) — the classic
	// single-engine configuration. The shard coordinator (internal/shard)
	// runs K engines with disjoint owners over the same store; an owner
	// must be nonempty, inside [0, P) and of the layout's P (validated at
	// New).
	Owner *IntervalRange
}

// WithDefaults returns the config with zero fields resolved to their
// defaults — the view an engine built from this config actually runs with.
// The shard coordinator uses it so the run loop it hands Drive (iteration
// bound, tolerance, checkpoint cadence) agrees with its engines'. Applying
// it twice changes nothing: the coordinator's engines resolve the resolved
// config again.
func (c Config) WithDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 100000
	}
	if c.ReadRetries > 0 && c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	return c
}
