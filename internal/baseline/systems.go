package baseline

import (
	"fmt"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// On-disk record sizes of the modeled systems.
const (
	// graphChiAdjBytes is one adjacency entry in a GraphChi shard.
	graphChiAdjBytes = 8
	// graphChiValBytes is one mutable edge value (read and written back).
	graphChiValBytes = 4
	// gridEdgeBytes is GridGraph's raw edge-list record (src, dst) —
	// the format §4.4 calls less space-efficient than HUS-Graph's
	// indexed 4-byte records; weighted runs append a float32.
	gridEdgeBytes = 8
	// xstreamEdgeBytes is X-Stream's streamed edge record (src, dst).
	xstreamEdgeBytes = 8
	// xstreamUpdateBytes is one scatter-phase update record (target +
	// value).
	xstreamUpdateBytes = 8
)

// GraphChi models the parallel-sliding-windows engine of Kyrola et al.
type GraphChi struct {
	ex  *executor
	dev *storage.Device
	cfg Config
	p   int
}

// NewGraphChi prepares a GraphChi run of prog over g with p shards.
func NewGraphChi(g *graph.Graph, prog core.Program, p int, dev *storage.Device, cfg Config) (*GraphChi, error) {
	if prog.NeedsSymmetric() {
		g = g.Symmetrize()
	}
	ex, err := newExecutor(g, prog)
	if err != nil {
		return nil, err
	}
	ex.rebuildEachIter = true // PSW's per-iteration subgraph construction
	if p < 1 {
		return nil, fmt.Errorf("baseline: GraphChi needs p >= 1, got %d", p)
	}
	return &GraphChi{ex: ex, dev: dev, cfg: cfg, p: p}, nil
}

// Name implements System.
func (*GraphChi) Name() string { return "GraphChi" }

// Device implements System.
func (c *GraphChi) Device() *storage.Device { return c.dev }

// Run implements System.
//
// Per iteration, PSW loads each interval's memory shard (its in-edges:
// adjacency + edge values), slides a window over every other shard to reach
// the interval's out-edges, and writes modified edge values back in both
// roles. Every edge is therefore read twice and its value written twice per
// iteration, regardless of how many vertices are active — the full-I/O
// behavior the paper contrasts with selective access. Computation is
// single-threaded (GraphChi's deterministic parallelism, Fig. 10).
func (c *GraphChi) Run() (*core.Result, error) {
	e := int64(c.ex.in.NumEdges())
	return runLoop(c.ex, c.dev, c.cfg, 1, func(_ *executor, dev *storage.Device) {
		perPass := e * (graphChiAdjBytes + graphChiValBytes)
		dev.ReadSeq(perPass) // memory shards (in-edges of each interval)
		dev.ReadSeq(perPass) // sliding windows (out-edges via other shards)
		dev.WriteSeq(2 * e * graphChiValBytes)
	}, func(_ *executor) int64 {
		// Update sweep plus the per-iteration subgraph construction —
		// allocating and sorting the vertex-centric structures costs
		// several edge-scan equivalents (GraphChi is notoriously
		// CPU-heavy; §4.4 calls construction "a time-consuming
		// process"), which is also why it profits least from faster
		// devices in Fig. 11.
		return 6 * e
	})
}

// edgeBytes returns the modeled edge-list record size for a config.
func edgeBytes(base int, cfg Config) int64 {
	if cfg.WeightedEdges {
		return int64(base) + 4
	}
	return int64(base)
}

// GridGraph models the streaming-apply engine of Zhu et al.
type GridGraph struct {
	ex     *executor
	dev    *storage.Device
	cfg    Config
	layout blockstore.Layout
	counts [][]int64 // edges per grid block (i = src chunk, j = dst chunk)
}

// NewGridGraph prepares a GridGraph run of prog over g with a p×p grid.
func NewGridGraph(g *graph.Graph, prog core.Program, p int, dev *storage.Device, cfg Config) (*GridGraph, error) {
	if prog.NeedsSymmetric() {
		g = g.Symmetrize()
	}
	ex, err := newExecutor(g, prog)
	if err != nil {
		return nil, err
	}
	layout := blockstore.NewLayout(g.NumVertices, p)
	counts := make([][]int64, layout.P)
	for i := range counts {
		counts[i] = make([]int64, layout.P)
	}
	for _, e := range g.Edges {
		counts[layout.IntervalOf(e.Src)][layout.IntervalOf(e.Dst)]++
	}
	return &GridGraph{ex: ex, dev: dev, cfg: cfg, layout: layout, counts: counts}, nil
}

// Name implements System.
func (*GridGraph) Name() string { return "GridGraph" }

// Device implements System.
func (g *GridGraph) Device() *storage.Device { return g.dev }

// Run implements System.
//
// Per iteration, the streaming-apply pass walks the grid column by column:
// every block of the column whose source chunk contains at least one
// active vertex is streamed in edge-list format. Blocks with
// fully-inactive source chunks are skipped —
// GridGraph's selective scheduling, which operates at block granularity
// only (it still loads every edge of a block containing a single active
// vertex, the gap HUS-Graph's ROP exploits).
func (g *GridGraph) Run() (*core.Result, error) {
	cfg := g.cfg.withDefaults()
	return runLoop(g.ex, g.dev, g.cfg, cfg.Threads, func(ex *executor, dev *storage.Device) {
		l := g.layout
		activeChunk := make([]bool, l.P)
		for i := 0; i < l.P; i++ {
			lo, hi := l.Bounds(i)
			activeChunk[i] = ex.frontier.CountIn(lo, hi) > 0
		}
		for j := 0; j < l.P; j++ {
			for i := 0; i < l.P; i++ {
				if activeChunk[i] && g.counts[i][j] != 0 {
					dev.ReadSeq(g.counts[i][j] * edgeBytes(gridEdgeBytes, g.cfg)) // edge block
				}
			}
		}
	}, func(ex *executor) int64 {
		return int64(ex.in.NumEdges())
	})
}

// XStream models the edge-centric scatter–gather engine of Roy et al.
type XStream struct {
	ex  *executor
	dev *storage.Device
	cfg Config
}

// NewXStream prepares an X-Stream run of prog over g.
func NewXStream(g *graph.Graph, prog core.Program, dev *storage.Device, cfg Config) (*XStream, error) {
	if prog.NeedsSymmetric() {
		g = g.Symmetrize()
	}
	ex, err := newExecutor(g, prog)
	if err != nil {
		return nil, err
	}
	return &XStream{ex: ex, dev: dev, cfg: cfg}, nil
}

// Name implements System.
func (*XStream) Name() string { return "X-Stream" }

// Device implements System.
func (x *XStream) Device() *storage.Device { return x.dev }

// Run implements System.
//
// Per iteration, the scatter phase streams the entire unordered edge list
// (X-Stream has no selective scheduling whatsoever), appending one update
// record per edge whose source is active; the gather phase streams those
// updates back and applies them to the vertex state. Update traffic
// therefore scales with the active edge count while edge traffic never
// shrinks.
func (x *XStream) Run() (*core.Result, error) {
	cfg := x.cfg.withDefaults()
	e := int64(x.ex.in.NumEdges())
	return runLoop(x.ex, x.dev, x.cfg, cfg.Threads, func(ex *executor, dev *storage.Device) {
		updates := ex.activeOutEdges()
		// Scatter: all edges in; updates out.
		dev.ReadSeq(e * edgeBytes(xstreamEdgeBytes, x.cfg))
		dev.WriteSeq(updates * xstreamUpdateBytes)
		// Gather: updates in.
		dev.ReadSeq(updates * xstreamUpdateBytes)
	}, func(ex *executor) int64 {
		return e + ex.activeOutEdges()
	})
}

var (
	_ System = (*GraphChi)(nil)
	_ System = (*GridGraph)(nil)
	_ System = (*XStream)(nil)
)
