package core

import (
	"fmt"
	"sync/atomic"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// ropAccumulate executes the accumulate phase of a Row-oriented Push
// iteration (paper Alg. 2) over the engine's owned rows.
//
// For every owned interval i containing active vertices, the row of
// out-blocks (i, 0)..(i, P-1) is processed by overlapping workers — their
// destination intervals are disjoint, so no write synchronization is
// needed. A worker takes its block from the iteration's window and pushes
// each active source's section: the window located them through the
// out-index and loaded them selectively, coalescing ranges whose gap is
// cheaper to read through than to seek over into one access (Alg. 2 lines
// 5–7, in ascending source order, as a disk scheduler would merge them).
//
// Monotone programs eagerly synchronize vertex values after each row
// (Alg. 2 lines 17–19), so later rows push already-improved values. Only
// the destination intervals the row pushed into are copied: D enters every
// row equal to S, so an interval no worker pushed into still is. That also
// leaves D == S bit for bit when the iteration ends, which is why a
// monotone run initializes D (InitAccumulators) before its first iteration
// only. Additive and Incremental programs accumulate into D across all
// rows; Step.FinalizeOwned applies and synchronizes them once at the end of
// the iteration (see the package comment for why), and the caller zeroes D
// before every iteration — once, even when K owner-scoped engines push into
// it in turn.
func (e *Engine) ropAccumulate(prog Program, s, d []float64, frontier, next *bitset.Frontier, win *blockstore.Prefetcher, live []blockstore.Extent) error {
	l := e.ds.Layout
	monotone := prog.Kind() == Monotone
	op := e.reduceOf(prog)
	step := e.ds.OutRecordBytes()
	var activate *bitset.Frontier // monotone programs activate on combine-change
	if monotone {
		activate = next
	}

	var failed atomic.Pointer[error] // the first block's error
	setErr := func(err error) { failed.CompareAndSwap(nil, &err) }

	// The window's plan (ropPlan) mirrors this traversal exactly: every
	// block live in live, one whose source mask meets the frontier, of every
	// active row, row-major. The window reads ahead across block — and row —
	// boundaries while the workers push; each row's workers claim their
	// blocks by key (Take), which is safe because together they drain the
	// row's contiguous schedule window before the next row starts.
	for i := e.lo; i < e.hi; i++ {
		lo, hi := l.Bounds(i)
		if frontier.CountIn(lo, hi) == 0 {
			continue // selective scheduling: no active sources in this row
		}

		parallelFor(l.P, e.cfg.Threads, func(j int) {
			if !live[i*l.P+j].Live() {
				return // a dead block: nothing read, nothing to push
			}
			res := win.Take(blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
			defer res.Release()
			if res.Err != nil {
				setErr(res.Err)
				return
			}
			jlo, jhi := l.Bounds(j)
			for _, sec := range res.Sections {
				if r := ropPush(prog, op, graph.VertexID(sec.V), s[sec.V], sec.Recs, step, e.ds.Weighted, d[jlo:jhi], jlo, activate); r >= 0 {
					local, _ := blockstore.OutRec(sec.Recs, r*step, step, e.ds.Weighted)
					setErr(fmt.Errorf("core: out-block (%d,%d) vertex %d: record %d: local destination %d not in [0,%d) or below the record's before it: %w", i, j, sec.V, r, local, jhi-jlo, storage.ErrCorrupt))
					return
				}
			}
		})
		if err := failed.Load(); err != nil {
			return *err
		}

		if monotone {
			// Eager synchronization: S_j ← D_j for every interval the row
			// pushed into (a live block's); the others still hold D_j == S_j.
			for j := 0; j < l.P; j++ {
				if live[i*l.P+j].Live() {
					jlo, jhi := l.Bounds(j)
					copy(s[jlo:jhi], d[jlo:jhi])
				}
			}
		}
	}

	return nil
}

// applyOwned runs the end-of-iteration apply/activate/synchronize sweep
// over the engine's owned intervals — Additive/Incremental ROP
// finalization (COP applies per column during the streaming sweep) and
// Incremental COP's deferred deltas. It is COP's column pass with no table
// in hand. Writes are owner-disjoint (owned vertex values, this engine's
// own frontier adds), so K shards may run it concurrently after every
// shard's accumulate phase completed. Returns the largest per-vertex value
// change.
func (e *Engine) applyOwned(prog Program, s, d []float64, next *bitset.Frontier) float64 {
	k := &e.cop
	k.prog, k.s, k.threads = prog, s, e.cfg.Threads
	defer k.end()
	return k.pass(e.vlo, e.vhi, d, next)
}
