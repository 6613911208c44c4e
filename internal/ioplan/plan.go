// Package ioplan plans all block I/O of the engine's iterations in one
// place.
//
// The plan constructors (ROPKeysFor, COPKeys) turn a predictor decision
// plus a frontier into the iteration's ordered read plan — the out-indices
// of the blocks an active source has an edge in for ROP, the in-block
// columns for COP — and the Scheduler opens one blockstore.Prefetcher over
// that plan per iteration. An iteration is a barrier: nothing is read
// across it. GraphMP's selective scheduling and PartitionedVC's planned
// sub-block reads both argue for exactly this: one layer that owns the
// whole I/O plan.
package ioplan

import (
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
)

// ROPKeys returns the out-index of every nonempty block of every row
// containing active vertices, row-major. blockEdges is the store's
// BlockEdgeCount grid. This is not the engine's plan: it is the superset the
// engine read before out-blocks carried source masks, kept because
// perfbench/trace.go times and counts it — so that probe's plan-key count
// includes the dead blocks ROPKeysFor leaves out.
func ROPKeys(l blockstore.Layout, blockEdges [][]int64, frontier *bitset.Frontier) []blockstore.BlockKey {
	visit := make([]blockstore.Extent, l.P*l.P)
	for i := 0; i < l.P; i++ {
		if lo, hi := l.Bounds(i); frontier.CountIn(lo, hi) > 0 {
			for j := 0; j < l.P; j++ {
				if blockEdges[i][j] != 0 {
					visit[i*l.P+j] = blockstore.Extent{End: int32(l.Size(i))}
				}
			}
		}
	}
	return ROPKeysFor(l, visit, nil)
}

// LiveBlocks records the extent of each out-block of the given source
// intervals (rows) for frontier — the ends of frontier ∧ its source mask
// (DualStore.Extent) — in live, block (i, j) at i·P+j, reusing live's array
// when it holds P·P entries. nil intervals means every interval; the blocks
// of the rows not listed, and of the rows without an active vertex, are all
// dead. It is a ROP iteration's one walk of the masks: the plan (ROPKeysFor),
// the prefetcher's page spans, the executor, the predictor and the compute
// model all read what it records.
func LiveBlocks(d *blockstore.DualStore, frontier *bitset.Frontier, intervals []int, live []blockstore.Extent) []blockstore.Extent {
	l := d.Layout
	if len(live) != l.P*l.P {
		live = make([]blockstore.Extent, l.P*l.P)
	}
	clear(live)
	eachInterval(l.P, intervals, func(i int) {
		if lo, hi := l.Bounds(i); frontier.CountIn(lo, hi) > 0 {
			for j := 0; j < l.P; j++ {
				live[i*l.P+j] = d.Extent(i, j, frontier)
			}
		}
	})
	return live
}

// ROPKeysFor returns the ordered read plan of a Row-oriented Push iteration
// over the given source intervals (rows), ascending — nil means every
// interval, a list the rows of an engine that owns only those
// (core.Config.Owner): the out-index of every block live in live
// (LiveBlocks), row-major — exactly the blocks, in exactly the order, the
// ROP executor visits.
func ROPKeysFor(l blockstore.Layout, live []blockstore.Extent, intervals []int) []blockstore.BlockKey {
	plan := make([]blockstore.BlockKey, 0, l.P*l.P)
	eachInterval(l.P, intervals, func(i int) {
		for j := 0; j < l.P; j++ {
			if live[i*l.P+j].Live() {
				plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
			}
		}
	})
	return plan
}

// COPKeys returns the ordered read plan of a Column-oriented Pull
// iteration: column by column, each column's in-blocks top to bottom —
// in-block (j, i) is keyed {KindInBlock, I: j, J: i}. skip, when non-nil,
// mirrors the executor's block-level selective scheduling: rows j with
// skip(j) true are omitted from every column, exactly as the COP loop
// skips them.
func COPKeys(l blockstore.Layout, skip func(j int) bool) []blockstore.BlockKey {
	return COPKeysFor(l, skip, nil)
}

// COPKeysFor is COPKeys restricted to the given destination intervals
// (columns), ascending — the read plan of an engine that owns only those
// intervals (core.Config.Owner). nil means every interval.
func COPKeysFor(l blockstore.Layout, skip func(j int) bool, intervals []int) []blockstore.BlockKey {
	plan := make([]blockstore.BlockKey, 0, l.P*l.P)
	eachInterval(l.P, intervals, func(i int) {
		for j := 0; j < l.P; j++ {
			if skip != nil && skip(j) {
				continue
			}
			plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindInBlock, I: j, J: i})
		}
	})
	return plan
}

// eachInterval calls fn for each listed interval, or for every interval in
// [0, p) when the list is nil.
func eachInterval(p int, intervals []int, fn func(i int)) {
	if intervals == nil {
		for i := 0; i < p; i++ {
			fn(i)
		}
		return
	}
	for _, i := range intervals {
		fn(i)
	}
}
