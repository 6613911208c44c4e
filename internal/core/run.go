package core

import (
	"context"
	"fmt"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
)

// Runner is what Drive steps through a run: one Engine, or a shard
// Coordinator over K of them, sharing one message table and writing S only
// through their Steps. It knows how to execute an iteration; when
// to, on what, and what to do between two of them is Drive's, and so is
// every run-level counter: the bucket an iteration processes, the store
// lineage's retries, the read-ahead a run wasted.
type Runner interface {
	// RunIter executes iteration iter over frontier on the value arrays s
	// and d — d already initialised (InitAccumulators) — and returns the
	// frontier it activated and its statistics. On an error the statistics
	// still name the model that ran.
	RunIter(prog Program, iter int, frontier *bitset.Frontier, s, d []float64) (*bitset.Frontier, IterStats, error)
	// CacheStats returns the block-cache snapshot, summed over the
	// runner's engines (zero without a cache).
	CacheStats() blockstore.CacheStats
}

// Drive runs prog on r to convergence, cfg.MaxIters or cancellation, and is
// the only place the run-loop policy lives: program and frontier
// validation, resume, bucket routing, cancellation with its best-effort
// checkpoint, accumulator initialisation, the bucket and fault counters of
// each iteration's stats, OnIteration, the checkpoint cadence, convergence
// and the run totals. cfg is the configuration the caller resolved for the
// whole run (a shard's own copy has no OnIteration and a slice of the cache
// budget); lead is the engine whose store holds the checkpoints and whose
// Context programs see — the engine itself, or shard 0.
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
	// next bucket once they are parked, whose hint the iteration that runs
	// it is stamped with.
	var hint BucketHint
	route := func(activated *bitset.Frontier) *bitset.Frontier {
		if router == nil {
			return activated
		}
		var f *bitset.Frontier
		f, hint = router.Route(activated, s)
		return f
	}

	// The message table's sweep-start refill may be skipped only inside
	// this run, which sees every write to s (MessageTable) — and never for a
	// bucketed program, whose EnterBucket may change what Message returns.
	lead.msgs.drive(router == nil)
	defer lead.msgs.drive(false)

	res := &Result{}
	// Retries are counted by the store lineage every engine's store is a
	// Fork of, so lead's counter is the run's at any K. Read
	// before the resume, so the run's totals include what loading the
	// checkpoint cost; a difference, so a reused runner (kill → resume on
	// the same instance) reports only this run.
	ds := lead.ds
	retries := ds.Retries()
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

	frontier = route(frontier)
	d := make([]float64, n) // D: current-iteration values / accumulators
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
		iterRetries := ds.Retries()
		next, st, err := r.RunIter(prog, iter, frontier, s, d)
		if err != nil {
			return nil, &IterError{Program: prog.Name(), Iter: iter, Model: st.Model, Err: err}
		}
		st.Retries = ds.Retries() - iterRetries
		if router != nil {
			st.Bucketed, st.BucketPri, st.BucketPending = true, hint.Pri, hint.Pending
		}
		res.PrefetchUnusedBytes += st.PrefetchUnusedBytes
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
	res.Values = s
	res.Recovery.Retries = ds.Retries() - retries
	res.Cache = r.CacheStats()
	return res, nil
}
