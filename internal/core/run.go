package core

import (
	"context"
	"fmt"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
)

// Runner is what Drive steps through a run: one Engine, or a shard
// Coordinator over K of them. It knows how to execute an iteration; when
// to, on what, and what to do between two of them is Drive's.
type Runner interface {
	// StartRun prepares for a sequence of RunIter calls.
	StartRun() error
	// SetBucketHint describes the bucket the coming iteration processes
	// (priority programs only).
	SetBucketHint(BucketHint)
	// RunIter executes iteration iter over frontier on the value arrays s
	// and d — d already initialised (InitAccumulators) — and returns the
	// frontier it activated and its statistics. On an error the statistics
	// still name the model that ran.
	RunIter(prog Program, iter int, frontier *bitset.Frontier, s, d []float64) (*bitset.Frontier, IterStats, error)
	// Totals returns the runner's cumulative counters; Drive reads them
	// around a run to attribute.
	Totals() RunTotals
}

// RunTotals are a Runner's cumulative counters: the store lineage's
// retried and hedged reads, the bytes read ahead and never consumed, and
// the block-cache snapshot (zero without a cache).
type RunTotals struct {
	Retries, Hedges     int64
	PrefetchUnusedBytes int64
	Cache               blockstore.CacheStats
}

// Drive runs prog on r to convergence, cfg.MaxIters or cancellation, and is
// the only place the run-loop policy lives: program and frontier
// validation, resume, bucket routing, cancellation with its best-effort
// checkpoint, accumulator initialisation, OnIteration, the checkpoint
// cadence, convergence and the run totals. cfg is the configuration the
// caller resolved for the whole run (a shard's own copy has no OnIteration
// and a slice of the cache budget); lead is the engine whose store holds
// the checkpoints and whose Context programs see — the engine itself, or
// shard 0.
func Drive(ctx context.Context, r Runner, lead *Engine, cfg Config, prog Program) (*Result, error) {
	n := lead.ds.Layout.NumVertices
	s, frontier := prog.Init(lead.ctx) // S: previous-iteration values (paper §3.3)
	if len(s) != n {
		return nil, fmt.Errorf("core: program %s returned %d values for %d vertices", prog.Name(), len(s), n)
	}
	if frontier.Len() != n {
		return nil, fmt.Errorf("core: program %s returned frontier over %d vertices, want %d", prog.Name(), frontier.Len(), n)
	}
	var router *BucketRouter
	if pp, ok := prog.(PriorityProgram); ok {
		if cfg.CheckpointEvery > 0 || cfg.Resume {
			return nil, fmt.Errorf("core: priority program %s cannot run with checkpointing or resume: parked bucket state is not derivable from a value checkpoint", prog.Name())
		}
		router = NewBucketRouter(pp, n)
	}
	// route turns the activations Init or an iteration produced into the
	// next frontier to run: themselves, or — for a priority program — the
	// next bucket once they are parked, with the runner told which.
	route := func(activated *bitset.Frontier) *bitset.Frontier {
		if router == nil {
			return activated
		}
		f, hint := router.Route(activated, s)
		r.SetBucketHint(hint)
		return f
	}

	res := &Result{}
	// Read before the resume, so the run's totals include what loading the
	// checkpoint cost; a difference, so a reused runner (kill → resume on
	// the same instance) reports only this run.
	before := r.Totals()
	startIter := 0
	if cfg.Resume {
		ck, fallbacks, err := lead.loadCheckpoint(prog)
		res.Recovery.CheckpointFallbacks = fallbacks
		if err != nil {
			return nil, err
		}
		if ck != nil {
			copy(s, ck.values)
			frontier = ck.frontier
			startIter = ck.iter
			res.Recovery.ResumedIter = ck.iter
		}
	}

	if err := r.StartRun(); err != nil {
		return nil, err
	}
	frontier = route(frontier) // after StartRun, which resets the bucket hint
	d := make([]float64, n)    // D: current-iteration values / accumulators
	// ckptIter is the iteration the newest checkpoint on the store resumes
	// at: the resume point until the cadence writes a later one.
	ckptIter := startIter
	for iter := startIter; iter < cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			// Best-effort final checkpoint: a cancelled job should resume
			// from the last *completed* iteration, not the last cadence
			// boundary. The cancellation error still wins; a failed write
			// just leaves the previous checkpoint in place. When the cadence
			// has just written this very iteration, a second write would
			// only overwrite the older generation kept as its fallback.
			if cfg.CheckpointEvery > 0 && iter > ckptIter {
				if lead.writeCheckpoint(prog, iter, s, frontier) == nil {
					res.Recovery.CheckpointsWritten++
				}
			}
			return nil, fmt.Errorf("core: %s cancelled before iteration %d: %w", prog.Name(), iter, err)
		}
		if frontier.Empty() {
			break
		}
		if iter == startIter || prog.Kind() != Monotone {
			// A monotone iteration ends with D == S bit for bit (rop.go,
			// cop.go), so only the run's first one has to copy.
			InitAccumulators(prog.Kind(), s, d)
		}
		next, st, err := r.RunIter(prog, iter, frontier, s, d)
		if err != nil {
			return nil, &IterError{Program: prog.Name(), Iter: iter, Model: st.Model, Err: err}
		}
		res.Iterations = append(res.Iterations, st)
		if cfg.OnIteration != nil {
			cfg.OnIteration(st)
		}
		frontier = route(next)

		if cfg.CheckpointEvery > 0 && (iter+1)%cfg.CheckpointEvery == 0 {
			if err := lead.writeCheckpoint(prog, iter+1, s, frontier); err != nil {
				return nil, fmt.Errorf("core: checkpoint at iteration %d: %w", iter+1, err)
			}
			ckptIter = iter + 1
			res.Recovery.CheckpointsWritten++
		}

		// Tolerance never terminates a bucketed run: a quiescent iteration
		// only means the current bucket settled — parked buckets remain, and
		// convergence is structural (the router runs out of live vertices).
		if router == nil && prog.Kind() != Monotone && cfg.Tolerance > 0 && st.MaxDelta < cfg.Tolerance {
			res.Converged = true
			break
		}
	}

	res.Converged = res.Converged || frontier.Empty()
	after := r.Totals()
	res.Values = s
	res.Recovery.Retries = after.Retries - before.Retries
	res.Recovery.Hedges = after.Hedges - before.Hedges
	res.PrefetchUnusedBytes = after.PrefetchUnusedBytes - before.PrefetchUnusedBytes
	res.Cache = after.Cache
	return res, nil
}
