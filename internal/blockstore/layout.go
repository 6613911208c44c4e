// Package blockstore implements the paper's dual-block graph representation
// (§3.2).
//
// The vertex set is split into P disjoint intervals. Every interval i has an
// in-shard and an out-shard; the in-shard is further partitioned into P
// in-blocks by source interval and the out-shard into P out-blocks by
// destination interval, yielding P×P in-blocks and P×P out-blocks:
//
//	out-block(i,j): edges from interval i to interval j, indexed by source
//	in-block(i,j):  edges from interval i to interval j, indexed by destination
//
// A per-source offset index (out-index) is stored alongside each out-block,
// enabling the selective loading of one active vertex's out-edges in ROP.
// An in-block is stored as (destination, source) keys in destination order,
// cut into tiles of at most 2¹⁶ × 2¹⁶ (InTiles), so COP splits each tile
// across workers at destination changes for the conflict-free
// per-destination parallel update.
package blockstore

import "fmt"

// Layout describes the interval partitioning of the vertex set.
type Layout struct {
	NumVertices int
	P           int
}

// NewLayout partitions n vertices into p equal intervals (the last interval
// may be smaller).
func NewLayout(n, p int) Layout {
	if n < 0 {
		panic("blockstore: negative vertex count")
	}
	if p < 1 {
		panic("blockstore: need at least one interval")
	}
	if p > n && n > 0 {
		p = n
	}
	return Layout{NumVertices: n, P: p}
}

// intervalSize is the size of every interval except possibly the last.
func (l Layout) intervalSize() int {
	return (l.NumVertices + l.P - 1) / l.P
}

// narrow reports whether every interval fits 16 bits (MaxCOOInterval): an
// out-block record then holds a 16-bit destination, and an in-block is one
// tile.
func (l Layout) narrow() bool { return l.intervalSize() <= MaxCOOInterval }

// Bounds returns the half-open vertex range [lo, hi) of interval i.
func (l Layout) Bounds(i int) (lo, hi int) {
	if i < 0 || i >= l.P {
		panic(fmt.Sprintf("blockstore: interval %d out of range [0,%d)", i, l.P))
	}
	sz := l.intervalSize()
	lo = i * sz
	hi = lo + sz
	if hi > l.NumVertices {
		hi = l.NumVertices
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Size returns the number of vertices in interval i.
func (l Layout) Size(i int) int {
	lo, hi := l.Bounds(i)
	return hi - lo
}

// IntervalOf returns the interval containing vertex v.
func (l Layout) IntervalOf(v uint32) int {
	if int(v) >= l.NumVertices {
		panic(fmt.Sprintf("blockstore: vertex %d out of range [0,%d)", v, l.NumVertices))
	}
	return int(v) / l.intervalSize()
}

// ChooseP returns the smallest partition count such that one edge block
// plus its working set of vertex values and index fit within the given
// memory budget — the paper's §3.2 rule: "By selecting P such that each
// in-block or out-block and the corresponding source and destination
// vertices can fit in memory, [HUS-Graph] can ensure good locality".
//
// The estimate assumes edges spread uniformly over the P×P grid with a
// skew factor of 4 for the largest block (power-law graphs concentrate
// edges near hubs); numVertices and numEdges describe the graph, weighted
// selects the record size. The result is clamped to [1, numVertices].
func ChooseP(numVertices int, numEdges int64, weighted bool, memoryBudget int64) int {
	if memoryBudget <= 0 {
		panic("blockstore: ChooseP needs a positive memory budget")
	}
	const skew = 4
	recBytes := int64(RawRecordBytes(weighted))
	for p := 1; p < numVertices; p *= 2 {
		interval := int64((numVertices + p - 1) / p)
		block := numEdges / int64(p*p) * recBytes * skew
		// Working set: the block, its per-vertex index, the source and
		// destination intervals' values plus the engine's second copy.
		working := block + (interval+1)*IndexEntryBytes + 4*interval*VertexValueBytes
		if working <= memoryBudget {
			return p
		}
	}
	return numVertices
}
