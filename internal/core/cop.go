package core

import (
	"fmt"
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
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

	// The column traversal order was handed to the scheduler as this
	// window's plan (ioplan.COPKeys): while this goroutine computes on
	// in-block(j,i), the window's workers read, verify and decode the next
	// blocks (or serve them from the cache). Every planned key is consumed
	// by exactly one Next call.
	k := &e.cop
	k.begin(e, prog, s, frontier)
	defer k.end()
	var maxDelta float64
	for _, i := range e.owned { // column i updates interval i
		lo, hi := l.Bounds(i)
		for j := 0; j < l.P; j++ { // stream in-blocks top to bottom
			res := win.Next()
			if res.Err != nil {
				return 0, res.Err
			}
			// The block arrives behind its in-index entries as stored —
			// packed records, or the varint sections of a compressed block,
			// which the kernel decodes as it folds them — or decoded from
			// the cache; res.Codec says which. The edge kernel partitions
			// the listed destinations across workers by payload bytes.
			if len(res.Payload) > 0 {
				if bad := k.block(d[lo:hi], res.Payload, res.ByteIdx, res.Codec); bad >= 0 {
					dst := lo + int(res.ByteIdx[2*bad])
					res.Release()
					return 0, fmt.Errorf("core: in-block (%d,%d) destination %d: %v section holds a malformed varint or a neighbour outside [0,%d): %w", j, i, dst, res.Codec, len(s), storage.ErrCorrupt)
				}
			}
			res.Release()
		}

		// Column finalization: activate changed vertices, synchronize
		// S_i ← D_i (Alg. 3 line 20). Incremental programs defer both to
		// iteration end.
		switch prog.Kind() {
		case Monotone:
			for v := lo; v < hi; v++ {
				if d[v] != s[v] {
					next.Add(v)
					s[v] = d[v]
				} else {
					// Equal values can still differ in bits (±0): keep
					// S's, so D == S bit for bit at the barrier and the
					// run never has to re-copy one into the other.
					d[v] = s[v]
				}
			}
		case Additive:
			var maxD float64
			for v := lo; v < hi; v++ {
				newVal, activate := prog.Apply(graph.VertexID(v), s[v], d[v])
				delta := math.Abs(newVal - s[v])
				if delta > maxD {
					maxD = delta
				}
				s[v] = newVal
				if activate {
					next.Add(v)
				}
			}
			if maxD > maxDelta {
				maxDelta = maxD
			}
		case Incremental:
			// Values synchronized after all columns.
		}
		if prog.Kind() != Incremental {
			k.refresh(lo, hi) // later columns pull S_i's new messages
		}
	}
	return maxDelta, nil
}
