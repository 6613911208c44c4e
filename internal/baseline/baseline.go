// Package baseline implements the comparison systems of the paper's
// evaluation (§4.4, §4.5): GraphChi (OSDI'12, parallel sliding windows),
// GridGraph (ATC'15, 2-level hierarchical partition with streaming-apply)
// and X-Stream (SOSP'13, edge-centric scatter–gather), running the same
// vertex programs as the HUS-Graph engine.
//
// Each baseline executes the computation for real (so results are
// verifiable against the oracles) while charging the simulated device with
// the I/O pattern of the original system's on-disk layout. Like the
// HUS-Graph engine, none of them charges vertex state, which stays
// resident, so Table 3 and Fig. 9 compare like with like:
//
//   - GraphChi reads every shard twice per iteration (once as the memory
//     shard, once through the sliding windows) and writes the mutable edge
//     values back — the "large amount of intermediate updates" the paper
//     blames for its I/O overhead — and its constrained ("deterministic")
//     parallelism is modeled by single-threaded computation (Fig. 10).
//   - GridGraph streams its 2-D grid of edge blocks in raw edge-list
//     format (12 bytes per edge vs HUS-Graph's 8-byte indexed records —
//     the storage-compactness gap §4.4 calls out), skips blocks whose
//     source chunk has no active vertices (block-level selective
//     scheduling), and writes nothing: its vertex chunks are resident.
//   - X-Stream streams the full unordered edge list every iteration
//     (no selective scheduling at all), writes one update record per
//     active edge in the scatter phase and re-reads those updates in the
//     gather phase.
//
// All three share one synchronous executor for the actual value
// computation; what distinguishes them — and what the paper measures — is
// the I/O they generate and their parallelism policy.
package baseline

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// System is the common interface of the three baseline engines, shaped
// like the HUS engine's API so the experiment harness can treat all four
// uniformly.
type System interface {
	// Name returns the system's display name ("GraphChi", ...).
	Name() string
	// Run executes the bound program to convergence (or the iteration
	// bound). A System is single-use: construct a fresh one per run.
	Run() (*core.Result, error)
	// Device returns the simulated device this system charges.
	Device() *storage.Device
}

// Config mirrors core.Config for the baselines.
type Config struct {
	// Threads is the worker count; 0 means GOMAXPROCS. GraphChi ignores
	// it (see package comment).
	Threads int
	// MaxIters bounds iterations; 0 means run to convergence.
	MaxIters int
	// Tolerance stops Additive/Incremental programs early, as in
	// core.Config.
	Tolerance float64
	// WeightedEdges sizes the modeled on-disk edge records: weighted
	// algorithms (SSSP) need the weight stored, traversal/ranking
	// algorithms do not — matching what the original systems store.
	WeightedEdges bool
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 100000
	}
	return c
}

// parallelChunks splits [0, n) into up to t contiguous chunks processed
// concurrently (same helper as the engine's; destinations are disjoint so
// no synchronization is needed).
func parallelChunks(n, t int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if t > n {
		t = n
	}
	if t <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + t - 1) / t
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// executor holds the shared computation state: a synchronous pull sweep
// over in-edges, gated on the active frontier — the fixed-point semantics
// all three original systems share for these programs.
type executor struct {
	ctx      *core.Context
	g        *graph.Graph
	in       *graph.CSR
	prog     core.Program
	s, d     []float64
	frontier *bitset.Frontier
	// rebuildEachIter re-constructs the in-memory adjacency structure at
	// the start of every step — GraphChi's per-interval subgraph
	// construction (§4.4 calls it "a time-consuming process"), which
	// keeps that system CPU-heavy and caps its benefit from faster
	// devices and more threads.
	rebuildEachIter bool
}

func newExecutor(g *graph.Graph, prog core.Program) (*executor, error) {
	ctx := &core.Context{NumVertices: g.NumVertices}
	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	ctx.OutDegrees = make([]int32, g.NumVertices)
	ctx.InDegrees = make([]int32, g.NumVertices)
	for v := range outDeg {
		ctx.OutDegrees[v] = int32(outDeg[v])
		ctx.InDegrees[v] = int32(inDeg[v])
	}
	values, frontier := prog.Init(ctx)
	if len(values) != g.NumVertices {
		return nil, fmt.Errorf("baseline: program %s returned %d values for %d vertices", prog.Name(), len(values), g.NumVertices)
	}
	return &executor{
		ctx:      ctx,
		g:        g,
		in:       graph.BuildInCSR(g),
		prog:     prog,
		s:        values,
		d:        make([]float64, g.NumVertices),
		frontier: frontier,
	}, nil
}

// step runs one synchronous iteration on `threads` workers and returns the
// next frontier and the largest value change.
func (e *executor) step(threads int) (*bitset.Frontier, float64) {
	if e.rebuildEachIter {
		e.in = graph.BuildInCSR(e.g)
	}
	n := e.ctx.NumVertices
	monotone := e.prog.Kind() == core.Monotone
	if monotone {
		copy(e.d, e.s)
	} else {
		for i := range e.d {
			e.d[i] = 0
		}
	}
	next := bitset.NewFrontier(n)
	parallelChunks(n, threads, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := e.in.Neighbors(graph.VertexID(v))
			if len(nbrs) == 0 {
				continue
			}
			ws := e.in.NeighborWeights(graph.VertexID(v))
			acc := e.d[v]
			dirty := false
			for i, u := range nbrs {
				if !e.frontier.Contains(int(u)) {
					continue
				}
				msg := e.prog.Message(u, e.s[u], ws[i])
				if a, changed := e.prog.Combine(acc, msg); changed {
					acc = a
					dirty = true
				}
			}
			if dirty {
				e.d[v] = acc
			}
		}
	})
	var maxDelta float64
	if monotone {
		for v := 0; v < n; v++ {
			if e.d[v] != e.s[v] {
				e.s[v] = e.d[v]
				next.Add(v)
			}
		}
	} else {
		for v := 0; v < n; v++ {
			newVal, activate := e.prog.Apply(graph.VertexID(v), e.s[v], e.d[v])
			if delta := math.Abs(newVal - e.s[v]); delta > maxDelta {
				maxDelta = delta
			}
			e.s[v] = newVal
			if activate {
				next.Add(v)
			}
		}
	}
	return next, maxDelta
}

// activeOutEdges sums out-degrees over the frontier.
func (e *executor) activeOutEdges() int64 {
	var t int64
	e.frontier.Range(func(v int) bool {
		t += int64(e.ctx.OutDegrees[v])
		return true
	})
	return t
}

// chargeFn charges one iteration's I/O for a specific system, given the
// executor state before the step.
type chargeFn func(e *executor, dev *storage.Device)

// workFn returns one iteration's edge work for the compute model (see
// core.ModeledComputeTime); systems with per-iteration construction
// overhead include it here.
type workFn func(e *executor) int64

// runLoop drives a baseline: charge the iteration's modeled I/O, execute
// the shared step, record stats — identical control flow for all three
// systems.
func runLoop(ex *executor, dev *storage.Device, cfg Config, threads int, charge chargeFn, work workFn) (*core.Result, error) {
	cfg = cfg.withDefaults()
	res := &core.Result{}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		if ex.frontier.Empty() {
			res.Converged = true
			break
		}
		before := dev.Stats()
		start := time.Now()
		st := core.IterStats{
			Iter:           iter,
			ActiveVertices: ex.frontier.Count(),
			ActiveEdges:    ex.activeOutEdges(),
			Model:          core.ModelCOP, // baselines have a single (full-I/O) model
		}
		charge(ex, dev)
		next, maxDelta := ex.step(threads)
		st.ComputeTime = time.Since(start)
		st.ComputeModeled = core.ModeledComputeTime(work(ex), int64(ex.ctx.NumVertices), 0, threads)
		st.IO = dev.Stats().Sub(before)
		st.IOTime = st.IO.SimIO
		st.Runtime = st.IOTime
		if st.ComputeModeled > st.Runtime {
			st.Runtime = st.ComputeModeled
		}
		st.MaxDelta = maxDelta
		res.Iterations = append(res.Iterations, st)
		ex.frontier = next
		if ex.prog.Kind() != core.Monotone && cfg.Tolerance > 0 && maxDelta < cfg.Tolerance {
			res.Converged = true
			break
		}
	}
	if ex.frontier.Empty() {
		res.Converged = true
	}
	res.Values = ex.s
	return res, nil
}
