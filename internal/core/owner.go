package core

import "fmt"

// IntervalRange scopes an engine to the contiguous intervals [Lo, Hi) of a
// layout with P intervals — the shape the shard coordinator deals out
// (shard s of K owns [s·P/K, (s+1)·P/K)).
//
// The dual-block partitioning (P intervals × P×P blocks) is the unit of
// placement: a shard that owns interval i executes ROP row i (pushing out of
// its sources), COP column i (pulling into its destinations), and the
// finalization of vertices in i. The engine's planners, predictors and
// executors all walk [Lo, Hi) only, so K engines with disjoint owners over
// the same store partition an iteration's I/O exactly.
//
// An owner is static for the life of the engine. The nil owner means
// [0, P) — the classic single-engine configuration, and the identity case
// the sharded runtime is verified against.
type IntervalRange struct {
	Lo, Hi, P int
}

// NewIntervalRange returns the owner of intervals [lo, hi) out of p.
func NewIntervalRange(lo, hi, p int) (*IntervalRange, error) {
	r := &IntervalRange{Lo: lo, Hi: hi, P: p}
	if err := r.check(); err != nil {
		return nil, err
	}
	return r, nil
}

// check reports a range that is empty or reaches outside [0, P).
func (r *IntervalRange) check() error {
	if r.Lo < 0 || r.Hi > r.P || r.Lo >= r.Hi {
		return fmt.Errorf("core: interval range [%d,%d) invalid for P=%d", r.Lo, r.Hi, r.P)
	}
	return nil
}

// resolveOwner returns the intervals [lo, hi) o owns of a layout with p
// intervals: nil owns [0, p). An owner of another P, or one whose range is
// empty or reaches outside [0, P), is an error naming its Lo, Hi and P.
func resolveOwner(o *IntervalRange, p int) (lo, hi int, err error) {
	if o == nil {
		return 0, p, nil
	}
	if o.P != p {
		return 0, 0, fmt.Errorf("core: owner [%d,%d) spans P=%d intervals, layout has %d", o.Lo, o.Hi, o.P, p)
	}
	return o.Lo, o.Hi, o.check()
}
