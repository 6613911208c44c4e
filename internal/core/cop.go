package core

import (
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
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
	dev := e.ds.Device()
	nv := int64(blockstore.VertexValueBytes)

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
		if !e.cfg.SemiExternal {
			dev.ReadSeq(int64(l.Size(i)) * nv) // load D_i (Alg. 3 line 1)
		}

		for j := 0; j < l.P; j++ { // stream in-blocks top to bottom
			if !e.cfg.SemiExternal {
				dev.ReadSeq(int64(l.Size(j)) * nv) // load S_j (Alg. 3 line 3)
			}
			res := win.Next()
			if res.Err != nil {
				return 0, res.Err
			}
			// The block arrives as packed records behind in-index entries
			// whatever stored it: a compressed one was decoded into that
			// shape by the window (in the prefetch worker, overlapping
			// I/O). The edge kernel partitions the listed destinations
			// across workers by edge count.
			if len(res.Payload) > 0 {
				k.block(d[lo:hi], res.Payload, res.ByteIdx)
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
		if !e.cfg.SemiExternal {
			dev.WriteSeq(int64(l.Size(i)) * nv) // write back D_i
		}
	}
	return maxDelta, nil
}
