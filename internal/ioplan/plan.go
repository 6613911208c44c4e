// Package ioplan is what perfbench's probe (perfbench/trace.go) still times
// and counts of the engine's old I/O-planning layer, and no other package
// may import it: ROPKeys, the ROP plan from before out-blocks carried source
// masks; COPKeys, a COP iteration's in-block columns; and Scheduler, a
// pass-through to DualStore.NewPrefetcher. The engine builds its own plans
// over the intervals it owns and opens its own prefetch window.
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
// includes the dead blocks the engine's plan leaves out.
func ROPKeys(l blockstore.Layout, blockEdges [][]int64, frontier *bitset.Frontier) []blockstore.BlockKey {
	plan := make([]blockstore.BlockKey, 0, l.P*l.P)
	for i := 0; i < l.P; i++ {
		if lo, hi := l.Bounds(i); frontier.CountIn(lo, hi) > 0 {
			for j := 0; j < l.P; j++ {
				if blockEdges[i][j] != 0 {
					plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
				}
			}
		}
	}
	return plan
}

// COPKeys returns the ordered read plan of a Column-oriented Pull
// iteration: column by column, each column's in-blocks top to bottom —
// in-block (j, i) is keyed {KindInBlock, I: j, J: i}. skip, when non-nil,
// omits the rows j with skip(j) true from every column.
func COPKeys(l blockstore.Layout, skip func(j int) bool) []blockstore.BlockKey {
	plan := make([]blockstore.BlockKey, 0, l.P*l.P)
	for i := 0; i < l.P; i++ {
		for j := 0; j < l.P; j++ {
			if skip == nil || !skip(j) {
				plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindInBlock, I: j, J: i})
			}
		}
	}
	return plan
}
