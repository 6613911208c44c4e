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
// executors all iterate owned intervals only, so K engines with disjoint
// owners over the same store partition an iteration's I/O exactly.
//
// An owner is static for the life of the engine. The nil owner means "all
// intervals" — the classic single-engine configuration, and the identity
// case the sharded runtime is verified against.
type IntervalRange struct {
	Lo, Hi, P int
	ivs       []int // Lo..Hi-1, what the engine's sweeps iterate
}

// NewIntervalRange returns the owner of intervals [lo, hi) out of p.
func NewIntervalRange(lo, hi, p int) (*IntervalRange, error) {
	if lo < 0 || hi > p || lo >= hi {
		return nil, fmt.Errorf("core: interval range [%d,%d) invalid for P=%d", lo, hi, p)
	}
	r := &IntervalRange{Lo: lo, Hi: hi, P: p, ivs: make([]int, 0, hi-lo)}
	for i := lo; i < hi; i++ {
		r.ivs = append(r.ivs, i)
	}
	return r, nil
}

// AllIntervals returns the owner of every interval of a P-interval layout.
func AllIntervals(p int) *IntervalRange {
	r, _ := NewIntervalRange(0, p, p)
	return r
}

// resolveOwner normalizes cfg.Owner for a layout with p intervals: nil
// means all intervals. It validates that the owner agrees with the layout.
func resolveOwner(o *IntervalRange, p int) (owned []int, ownsAll bool, err error) {
	if o == nil {
		o = AllIntervals(p)
	}
	if o.P != p {
		return nil, false, fmt.Errorf("core: owner spans %d intervals, layout has %d", o.P, p)
	}
	if len(o.ivs) == 0 {
		return nil, false, fmt.Errorf("core: owner owns no intervals")
	}
	prev := -1
	for _, i := range o.ivs {
		if i <= prev || i >= p {
			return nil, false, fmt.Errorf("core: owner intervals not ascending in [0,%d): %v", p, o.ivs)
		}
		prev = i
	}
	return o.ivs, len(o.ivs) == p, nil
}
