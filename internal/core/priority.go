package core

import (
	"husgraph/internal/bitset"
	"husgraph/internal/bucket"
	"husgraph/internal/graph"
)

// PriorityProgram extends Program with a per-vertex priority, turning the
// engine's iterate-to-fixpoint loop into Julienne-style bucketed execution:
// activated vertices are parked in priority buckets at the iteration
// barrier, and each iteration's frontier is exactly the next bucket in
// priority order (delta-stepping SSSP's distance buckets, coreness
// peeling's degree buckets). Per-bucket termination is structural — a
// bucket drains to fixpoint through same-bucket reinsertion before the
// next bucket opens, and the run converges when no bucket holds a live
// vertex.
//
// Priority and PriorityOrder must be pure; EnterBucket is called by Drive
// between iterations (before any worker of the coming one starts), so
// implementations may store the bucket priority in a plain field for Apply
// to read.
//
// Priority programs cannot be checkpointed: parked bucket state is not
// derivable from the value array, so Config.CheckpointEvery and
// Config.Resume are rejected for them.
type PriorityProgram interface {
	Program
	// Priority maps a vertex and its current value to its bucket priority.
	Priority(v graph.VertexID, val float64) int64
	// PriorityOrder declares the drain direction.
	PriorityOrder() bucket.Order
	// EnterBucket is called once per iteration with the priority of the
	// bucket about to be processed (monotone in the declared order across
	// the run).
	EnterBucket(pri int64)
}

// BucketRouter drives a PriorityProgram's frontiers through the bucket
// structure: every activation the iteration produced is parked at its
// priority, and the next iteration's frontier is the popped minimum (resp.
// maximum) bucket. Owned by Drive and touched only between iterations, so
// a K-shard run routes its one merged frontier exactly as an unsharded run
// routes its own (bit-identity).
type BucketRouter struct {
	prog PriorityProgram
	b    *bucket.Buckets
}

// NewBucketRouter builds a router over [0, n) for prog.
func NewBucketRouter(prog PriorityProgram, n int) *BucketRouter {
	return &BucketRouter{prog: prog, b: bucket.MakeBuckets(n, prog.PriorityOrder(), 0)}
}

// BucketHint is the barrier-time bucket state handed to the engines before
// an iteration: the priority of the bucket being processed and the number
// of vertices still parked.
type BucketHint struct {
	Pri     int64
	Pending int
}

// Route parks every member of next at its current priority (from the value
// array — ascending vertex order, so the sequence is deterministic at every
// shard count) and pops the next bucket. It returns the popped frontier
// (an empty frontier when no live vertex remains — the caller's converged
// signal) and the barrier hint, and tells the program which bucket opens.
func (r *BucketRouter) Route(next *bitset.Frontier, s []float64) (*bitset.Frontier, BucketHint) {
	next.Range(func(v int) bool {
		r.b.UpdateBucket(v, r.prog.Priority(graph.VertexID(v), s[v]))
		return true
	})
	f, pri, ok := r.b.NextBucket()
	if !ok {
		return bitset.NewFrontier(r.b.Len()), BucketHint{}
	}
	r.prog.EnterBucket(pri)
	return f, BucketHint{Pri: pri, Pending: r.b.Pending()}
}
