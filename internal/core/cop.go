package core

import (
	"fmt"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// runCOP executes one Column-oriented Pull iteration (paper Alg. 3) over
// the engine's owned columns.
//
// For every owned interval i, the column of in-blocks (0, i)..(P-1, i) is
// streamed sequentially; within each in-block, destination vertices are
// partitioned across workers (each owns its destinations, so there are no
// write conflicts, §3.5) and pull messages from their active in-neighbors.
// After a column completes, S_i ← D_i (Alg. 3 line 20), so later columns
// pull already-updated values: monotone programs converge faster, additive
// programs become a Gauss–Seidel sweep (same fixed point). Incremental
// programs defer synchronization to iteration end — Step.FinalizeOwned
// consumes the deferred deltas (a delta must be consumed exactly once).
// The caller initializes D (InitAccumulators).
//
// Returns the largest per-vertex value change (non-Monotone only).
func (e *Engine) runCOP(prog Program, s, d []float64, frontier, next *bitset.Frontier, win *blockstore.Prefetcher) (float64, error) {
	l := e.ds.Layout

	// The column traversal order is this window's plan (copPlan):
	// while this goroutine computes on in-block(j,i), the window's workers
	// read and verify the next blocks (or serve them from the cache). Every
	// planned key is consumed by exactly one Next call.
	k := &e.cop
	k.begin(e, prog, s, frontier)
	defer k.end()
	var maxDelta float64
	for i := e.lo; i < e.hi; i++ { // column i updates interval i
		lo, hi := l.Bounds(i)
		for j := 0; j < l.P; j++ { // stream in-blocks top to bottom
			res := win.Next()
			if res.Err != nil {
				return 0, res.Err
			}
			// The block arrives as stored, from the device or the cache, and
			// is cut into its tiles, the directory checked on every fold.
			// Each tile holds one key per edge, as a record or as the
			// group-varint deltas of a compressed block, which the kernel
			// decodes as it folds them; the meta's codec says which. The
			// tiles fold in stored order, so each destination's chain visits
			// its sources ascending, and the edge kernel splits each tile
			// across workers by destination.
			err := e.foldTiles(j, i, d[lo:hi], res.Payload)
			res.Release()
			if err != nil {
				return 0, err
			}
		}

		// Column finalization, one pass over the interval once every block
		// of the column is folded: apply, activate, synchronize S_i ← D_i
		// (Alg. 3 line 20) and rewrite the interval's messages, which later
		// columns pull. Incremental programs defer all of it to iteration
		// end.
		if prog.Kind() != Incremental {
			if md := k.pass(lo, hi, d, next); md > maxDelta {
				maxDelta = md
			}
		}
	}
	// Every entry is now the message of the S the sweep leaves behind, if
	// every source was active and the column passes rewrote the entries.
	e.msgs.current = e.msgs.driven && k.m != nil && k.active == nil && prog.Kind() != Incremental
	return maxDelta, nil
}

// foldTiles folds in-block(j,i), as stored, into the accumulators d of
// destination interval i, tile by tile.
func (e *Engine) foldTiles(j, i int, d []float64, payload []byte) error {
	k := &e.cop
	tiles, err := e.ds.InTiles(j, i, payload, k.tiles)
	if err != nil {
		return err
	}
	k.tiles = tiles
	jlo, _ := e.ds.Layout.Bounds(j)
	codec := e.ds.InCodec(j, i)
	for _, t := range tiles {
		if len(t.Payload) == 0 {
			continue
		}
		dt, slo, shi := d[t.DstLo:t.DstHi], jlo+t.SrcLo, jlo+t.SrcHi
		var bad int
		if codec == blockstore.CodecCOO {
			bad = k.records(dt, slo, shi, t.Payload)
		} else {
			bad = k.varint(dt, slo, shi, t.Payload)
		}
		if bad >= 0 {
			return fmt.Errorf("core: in-block (%d,%d), tile at destination %d and source %d: record %d: %v keys malformed or out of (destination, source) order, or naming a destination outside [0,%d) or a source outside [0,%d): %w", j, i, t.DstLo, t.SrcLo, bad, codec, len(dt), shi-slo, storage.ErrCorrupt)
		}
	}
	return nil
}
