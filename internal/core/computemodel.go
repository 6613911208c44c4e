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
	// throughput (~5–8 ns/edge on commodity hardware).
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

// Decode-cost model. Like compute, decode is priced for the modeled
// testbed rather than measured by wall clock, so modeled runs replay
// deterministically on any host.
//
// varintDecodeNsPerByte prices delta-gap varint decode per *decoded*
// (logical) byte produced (~650 MB/s single-thread, the measured ballpark
// for binary.Uvarint chains on commodity hardware).
const varintDecodeNsPerByte = 1.5

// ModeledDecodeTime prices the decompression of varintBytes logical bytes,
// divided across the modeled worker count. Where the price lands (Step.End:
// CPU side with prefetch, I/O side without) is a kept convention from when
// the block loads decoded; COP now folds varint in-blocks in the edge loop,
// a known deviation until the decode rate is calibrated (DESIGN.md §4f).
func ModeledDecodeTime(varintBytes int64, threads int) time.Duration {
	ns := float64(varintBytes) * varintDecodeNsPerByte / float64(effectiveThreads(threads))
	return time.Duration(ns) * time.Nanosecond
}

// defaultDecodeNsPerByte is the predictor's decode price per logical byte:
// the varint rate at the configured parallelism, as ModeledDecodeTime
// charges it.
func defaultDecodeNsPerByte(threads int) float64 {
	return varintDecodeNsPerByte / float64(effectiveThreads(threads))
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
