package core

import (
	"time"

	"husgraph/internal/blockstore"
)

// Compute-time model.
//
// All runtimes in this reproduction are simulated quantities: the device
// model charges I/O, and this file charges computation. Measuring compute
// by wall clock would leak the *host's* properties into the results — a
// single-core CI box would flatten every thread-scaling curve (Fig. 10a)
// and GC pauses would spike otherwise-constant per-iteration lines
// (Fig. 8) — so instead the engine counts the work actually performed and
// prices it for the paper's testbed: a 16-core commodity machine (§4.1).
// The computation itself still runs for real (results are verified against
// oracles); only its clock is modeled. Measured wall time remains
// available in IterStats.ComputeTime.
const (
	// ModeledCores is the simulated testbed's core count.
	ModeledCores = 16
	// edgeCostNanos prices one edge visit (frontier check, message,
	// combine) — calibrated to this codebase's measured single-thread
	// throughput (~5–8 ns/edge on commodity hardware). A COP edge costs
	// this whatever its in-block's codec: a compressed in-block is folded
	// as stored, with no decode pass to price (DESIGN.md §4f).
	edgeCostNanos = 6
	// vertexCostNanos prices the per-vertex serial work of an iteration
	// (apply/synchronize/activation scans).
	vertexCostNanos = 2
	// blockCostNanos prices the serial setup of touching one block
	// (load dispatch, worker spawn).
	blockCostNanos = 3000
)

// effectiveThreads bounds the configured worker count by the modeled
// machine.
func effectiveThreads(threads int) int {
	if threads > ModeledCores {
		return ModeledCores
	}
	if threads < 1 {
		return 1
	}
	return threads
}

// ModeledComputeTime prices one iteration's computation: parallel edge
// work divided across workers plus serial per-vertex and per-block terms.
func ModeledComputeTime(edgeWork, vertexWork, blocks int64, threads int) time.Duration {
	par := edgeWork * edgeCostNanos / int64(effectiveThreads(threads))
	ser := vertexWork*vertexCostNanos + blocks*blockCostNanos
	return time.Duration(par+ser) * time.Nanosecond
}

// iterationWork returns the edge and block work of the coming iteration
// under the chosen model, scoped to the engine's owned intervals: ROP
// touches the active out-edges in the live blocks of owned rows, those
// whose extent in live is (Engine.live); COP scans every in-edge of every
// block streamed into an owned column.
func (e *Engine) iterationWork(model Model, live []blockstore.Extent, activeEdges int64) (edges, blocks int64) {
	l := e.ds.Layout
	if model == ModelROP {
		for _, x := range live {
			if x.Live() {
				blocks++
			}
		}
		return activeEdges, blocks
	}
	for i := e.lo; i < e.hi; i++ { // column i
		for j := 0; j < l.P; j++ {
			edges += e.ds.BlockEdgeCount[j][i]
			blocks++
		}
	}
	return edges, blocks
}
