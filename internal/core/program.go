// Package core implements the HUS-Graph engine: the hybrid ROP/COP update
// strategy over the dual-block representation with I/O-based performance
// prediction, as described in §3 of the paper.
//
// # Update models
//
// Row-oriented Push (ROP, Alg. 2) traverses only the out-edges of active
// vertices, loading each active vertex's edge range from the out-blocks
// with one random access, and pushes updates to destinations. Out-blocks of
// one row have disjoint destination intervals, so they are processed by
// overlapping worker threads (§3.5).
//
// Column-oriented Pull (COP, Alg. 3) streams every in-block of an
// interval's column sequentially; each destination vertex pulls from its
// active in-neighbors. Destinations within a block are partitioned across
// worker threads without write conflicts (§3.5).
//
// # Model selection
//
// The engine selects between ROP and COP per iteration with the paper's
// I/O-based cost comparison (§3.4): C_rop, the predicted cost of loading
// the active out-edges randomly, against C_cop, the predicted cost of
// streaming all in-edges. The paper's vertex term is left out: vertex
// state is resident, so no store reads it and no iteration is charged for
// it. The comparison is only evaluated while the active-vertex
// count is below α·|V| (default α = 5%); above that COP is chosen outright.
//
// The paper's Algorithm 1 nominally selects per interval, but a mixed
// assignment loses updates (an edge from a COP-chosen source interval into
// a ROP-chosen destination interval is traversed by neither model), and the
// paper's own evaluation (Fig. 8) assesses the choice per iteration; this
// implementation therefore decides globally per iteration.
//
// # Program semantics
//
// Programs declare one of two kinds. Monotone programs (BFS, WCC, SSSP)
// have idempotent, order-insensitive combines; the engine uses the paper's
// eager per-row/per-column value synchronization for them, which speeds up
// in-iteration propagation. Additive programs (PageRank variants) sum
// contributions; re-application is not idempotent, so in ROP the engine
// defers value synchronization to the end of the iteration (synchronous
// update), while in COP each interval's column completes its accumulator
// before the eager swap (Gauss–Seidel update), matching the paper's
// execution order safely.
package core

import (
	"husgraph/internal/bitset"
	"husgraph/internal/graph"
)

// Kind classifies a vertex program's combine semantics.
type Kind int

const (
	// Monotone programs combine by an idempotent improvement operator
	// (min/max); accumulators carry the previous value. The engine uses
	// the paper's eager per-row/per-column value synchronization.
	Monotone Kind = iota
	// Additive programs recompute each vertex from scratch every
	// iteration by summing contributions; accumulators start from zero
	// and Apply finalizes them. Eager column synchronization in COP is a
	// Gauss–Seidel sweep with the same fixed point; in ROP
	// synchronization is deferred to iteration end (partial row sums must
	// not become sources).
	Additive
	// Incremental programs are additive but propagate per-iteration
	// deltas rather than full recomputations (PageRank-Delta). A delta
	// must be consumed exactly once, so the engine defers all value
	// synchronization and Apply calls to iteration end in both models.
	Incremental
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Monotone:
		return "monotone"
	case Additive:
		return "additive"
	case Incremental:
		return "incremental"
	default:
		return "unknown"
	}
}

// Context gives programs access to static graph properties.
type Context struct {
	NumVertices int
	OutDegrees  []int32
	InDegrees   []int32
}

// Program is a vertex program in the paper's user-defined-function style:
// updates propagate from source to destination vertices through edges, with
// the engine deciding whether to push (ROP) or pull (COP) them.
//
// Implementations must be safe for concurrent calls to Message and Combine
// from multiple worker threads. Apply is called at most once per vertex per
// iteration, never concurrently for the same vertex.
//
// A program whose Combine is a plain sum or a strict minimum should also
// implement the optional Reducer interface (kernel.go): on unweighted stores
// the engine then calls Message once per source instead of once per edge and
// inlines the reduction, with bit-identical results. Programs that do not
// are run through Message and Combine per edge, as written here.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Kind declares the combine semantics (see Kind).
	Kind() Kind
	// NeedsSymmetric reports whether the program requires each edge to be
	// present in both directions (WCC over directed input).
	NeedsSymmetric() bool
	// Init returns the initial vertex values and initial frontier.
	Init(ctx *Context) ([]float64, *bitset.Frontier)
	// Message computes the value carried from src (current value srcVal)
	// along an out-edge with the given weight.
	Message(src graph.VertexID, srcVal float64, weight float32) float64
	// Combine folds msg into the destination's accumulator, reporting
	// whether the accumulator changed.
	Combine(acc, msg float64) (changed float64, didChange bool)
	// Apply finalizes a vertex after all combines of an iteration: given
	// the previous value and final accumulator it returns the new value
	// and whether the vertex is active next iteration. For Monotone
	// programs the engine activates on combine-change and Apply is used
	// only at column/iteration finalization.
	Apply(v graph.VertexID, prev, acc float64) (newVal float64, activate bool)
}
