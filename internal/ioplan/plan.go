// Package ioplan plans all block I/O of the engine's iterations in one
// place.
//
// The plan constructors (ROPKeys, COPKeys) turn a predictor decision plus a
// frontier into the iteration's ordered read plan — the out-indices of
// active rows for ROP, the in-block columns for COP — and the Scheduler
// opens one blockstore.Prefetcher over that plan per iteration. An
// iteration is a barrier: nothing is read across it. GraphMP's selective
// scheduling and PartitionedVC's planned sub-block reads both argue for
// exactly this: one layer that owns the whole I/O plan.
package ioplan

import (
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
)

// ROPKeys returns the ordered read plan of a Row-oriented Push iteration:
// the out-index of every nonempty block of every row containing active
// vertices, row-major — exactly the traversal order of the ROP executor.
// blockEdges is the store's BlockEdgeCount grid.
func ROPKeys(l blockstore.Layout, blockEdges [][]int64, frontier *bitset.Frontier) []blockstore.BlockKey {
	return ROPKeysFor(l, blockEdges, frontier, nil)
}

// ROPKeysFor is ROPKeys restricted to the given source intervals (rows),
// ascending — the read plan of an engine that owns only those intervals
// (core.Config.Owner). nil means every interval.
func ROPKeysFor(l blockstore.Layout, blockEdges [][]int64, frontier *bitset.Frontier, intervals []int) []blockstore.BlockKey {
	plan := make([]blockstore.BlockKey, 0, l.P*l.P)
	eachInterval(l.P, intervals, func(i int) {
		lo, hi := l.Bounds(i)
		if frontier.CountIn(lo, hi) == 0 {
			return
		}
		for j := 0; j < l.P; j++ {
			if blockEdges[i][j] != 0 {
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
