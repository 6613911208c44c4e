// Quickstart: build a graph, materialize its dual-block representation,
// and run BFS with the hybrid update strategy — the minimal end-to-end use
// of the HUS-Graph public API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

func main() {
	// 1. A graph. Here: a synthetic social network (power-law R-MAT).
	//    Any *graph.Graph works — load one with graph.ReadEdgeList.
	g := gen.RMAT(1<<14, 200_000, gen.Graph500, rand.New(rand.NewSource(42)))
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	// 2. A storage device. The simulated HDD charges sequential and
	//    random accesses like the paper's 7200RPM disk; swap in
	//    storage.SSD / storage.RAM, or a FileStore for real files.
	dev := storage.NewDevice(storage.HDD)
	store := storage.NewMemStore(dev)

	// 3. The dual-block representation: P vertex intervals, P×P in-blocks
	//    and P×P out-blocks with per-vertex indices (paper §3.2).
	ds, err := blockstore.BuildOpts(store, g, blockstore.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	dev.Reset() // don't count preprocessing

	// 4. The engine with the hybrid update strategy (paper §3.3–3.4).
	engine := core.New(ds, core.Config{Model: core.ModelHybrid})

	// 5. Run a vertex program.
	src := gen.BFSSource(g)
	res, err := engine.Run(algos.BFS{Source: src})
	if err != nil {
		log.Fatal(err)
	}

	reached := 0
	for _, d := range res.Values {
		if d < algos.Unreached {
			reached++
		}
	}
	rop, cop := res.ModelCounts()
	fmt.Printf("BFS from %d: reached %d vertices in %d iterations (%d ROP, %d COP)\n",
		src, reached, res.NumIterations(), rop, cop)
	fmt.Printf("modeled runtime %v, I/O %.1f MB\n",
		res.TotalRuntime().Round(1000), float64(res.TotalIO().TotalBytes())/1e6)
	for _, it := range res.Iterations {
		fmt.Printf("  iter %2d: %-3s  %7d active vertices, %8d active edges\n",
			it.Iter+1, it.Model, it.ActiveVertices, it.ActiveEdges)
	}
}
