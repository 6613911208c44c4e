package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
)

const (
	numIntervals  = 16 // P
	prefetchDepth = 2
	prIterations  = 10
	defaultSeed   = 1
	defaultScale  = 18 // 2¹⁸ vertices; see README "Sizing" for why not 2²⁰
)

// workload is one set of inputs plus the engine configuration it runs
// under. The engine only ever sees the store built from the graph.
type workload struct {
	name string
	why  string
	// pagerank selects the program (PageRank for prIterations, else BFS to
	// convergence) and the graph family.
	pagerank bool
	format   blockstore.Format
	// shards > 1 runs through shard.New with one thread per shard;
	// cacheShare is the block-cache budget as a share of the in-column
	// working set (0 = no cache).
	shards     int
	cacheShare float64
}

var workloads = []workload{
	{name: "pr_scan_raw", pagerank: true, format: blockstore.FormatRaw,
		why: "full COP column scans of raw blocks: edge loop, CRC verify and sequential reads; decode, cache, ROP and sharding idle"},
	{name: "pr_scan_mixed", pagerank: true, format: blockstore.FormatMixed,
		why: "same scans on per-block compressed storage: decode runs in the prefetch workers and read_bytes shrinks"},
	{name: "bfs_sparse", format: blockstore.FormatRaw,
		why: "long sparse BFS, every iteration ROP: thousands of small range reads, out-index loads, planner and predictor per barrier"},
	// The budget is split evenly between the shards while the hubs sit in
	// shard 0's columns: at 0.9 of the working set shard 1's columns fit
	// its slice (every re-read hits) and shard 0's do not (a cyclic scan
	// through an LRU that is too small: every re-read misses and evicts).
	// At 0.5, the obvious choice, neither fits and the hit ratio is 0.
	{name: "pr_shard2_cached", pagerank: true, format: blockstore.FormatRaw, shards: 2, cacheShare: 0.9,
		why: "two shards, cache below the working set (one shard hits, one thrashes): token wavefront, barrier merge, cache lookups and eviction"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// buildGraph generates the workload's graph from the seed alone.
//
// PageRank runs on a Chung–Lu power-law graph (α 2.2, ~9.3 edges/vertex
// after dedup): heavy-tailed like the paper's social graphs, hubs at low
// IDs. gen.RMAT would be the closer analogue but its dedup-and-top-up loop
// costs 3.3 µs/edge here, which at any useful size is most of a run's time
// budget. BFS runs on the locality-bounded web graph with long tendrils in
// the last 5 % of IDs: ~50 wavefront levels followed by ~135 levels that
// keep a handful of vertices active.
func buildGraph(w workload, seed int64, scale int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	if w.pagerank {
		return gen.ChungLu(n, 10*n, 2.2, rng)
	}
	coreN := n - n/20
	g := gen.Web(coreN, 8*n, gen.WebParams{Alpha: 2.2, JumpFrac: 0.01}, rng)
	g.NumVertices = n
	gen.AddTendrils(g, coreN, 90, rng)
	return g
}

// fingerprint identifies a generated graph: a change to internal/gen that
// moves the workload shows up here before it shows up as a timing.
type fingerprint struct {
	Vertices     int    `json:"vertices"`
	Edges        int    `json:"edges"`
	EdgeChecksum string `json:"edge_checksum"`
}

func fingerprintOf(g *graph.Graph) fingerprint {
	h := newWordHash()
	for _, e := range g.Edges {
		h.add(uint64(e.Src)<<32 | uint64(e.Dst))
	}
	return fingerprint{Vertices: g.NumVertices, Edges: len(g.Edges), EdgeChecksum: h.String()}
}

// wordHash is FNV-1a over 64-bit words.
type wordHash uint64

func newWordHash() *wordHash {
	h := wordHash(14695981039346656037)
	return &h
}

func (h *wordHash) add(x uint64) { *h = (*h ^ wordHash(x)) * 1099511628211 }

func (h *wordHash) String() string { return fmt.Sprintf("%016x", uint64(*h)) }

func hashValues(vals []float64) string {
	h := newWordHash()
	for _, v := range vals {
		h.add(math.Float64bits(v))
	}
	return h.String()
}

// program returns a fresh vertex program for the workload.
func (w workload) program(source graph.VertexID) core.Program {
	if w.pagerank {
		return &algos.PageRank{}
	}
	return algos.BFS{Source: source}
}

func (w workload) maxIters() int {
	if w.pagerank {
		return prIterations
	}
	return 0 // to convergence
}

// expectedHash computes the workload's correct output without the engine.
// BFS is checked against the serial oracle. PageRank under COP is a
// Gauss–Seidel sweep at interval granularity (core.runCOP synchronises
// S_i ← D_i after each column), so its reference is the same sweep written
// serially over an in-memory CSR; all three PageRank workloads must
// reproduce it bit for bit, which is also what makes them agree with each
// other.
func expectedHash(w workload, g *graph.Graph, source graph.VertexID) string {
	if !w.pagerank {
		return hashValues(algos.OracleBFS(g, source))
	}
	n := g.NumVertices
	// In-neighbours must be summed in ascending source order, as in-blocks
	// store them. BuildInCSR keeps the edge list's order within a row, and
	// the generators leave the list sorted by source (Dedup), so the copy
	// is rarely needed.
	bySrc := func(i, j int) bool { return g.Edges[i].Src < g.Edges[j].Src }
	if !sort.SliceIsSorted(g.Edges, bySrc) {
		g = g.Clone()
		sort.SliceStable(g.Edges, bySrc)
	}
	in := graph.BuildInCSR(g)
	outDeg := g.OutDegrees()
	layout := blockstore.NewLayout(n, numIntervals)
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 / float64(n)
	}
	acc := make([]float64, n)
	for iter := 0; iter < prIterations; iter++ {
		for i := 0; i < layout.P; i++ {
			lo, hi := layout.Bounds(i)
			for v := lo; v < hi; v++ {
				a := 0.0
				for _, u := range in.Neighbors(graph.VertexID(v)) {
					a += s[u] / float64(outDeg[u])
				}
				acc[v] = a
			}
			for v := lo; v < hi; v++ {
				s[v] = (1-algos.PageRankDamping)/float64(n) + algos.PageRankDamping*acc[v]
			}
		}
	}
	return hashValues(s)
}
