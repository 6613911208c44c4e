// Roadtrip: weighted single-source shortest paths on a high-diameter
// web-style graph — the workload where the hybrid update strategy shines,
// because the traversal wave keeps the active set sparse for most
// iterations (paper Fig. 8).
//
// The example runs SSSP under forced ROP, forced COP and Hybrid on the
// same store and prints the three bills side by side, then follows one
// shortest path.
package main

import (
	"fmt"
	"log"
	"math"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func main() {
	d, err := gen.ByName("uk-sim")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	src := gen.BFSSource(g)
	fmt.Printf("web graph %s: %d pages, %d weighted links; source %d\n",
		d.Name, g.NumVertices, g.NumEdges(), src)

	var hybrid *core.Result
	fmt.Printf("\n%-8s %10s %12s %12s %6s\n", "model", "iters", "I/O (MB)", "runtime", "ROP%")
	for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
		dev := storage.NewDevice(storage.HDD)
		ds, err := blockstore.BuildOpts(storage.NewMemStore(dev), g, blockstore.Options{P: 8, Weighted: true})
		if err != nil {
			log.Fatal(err)
		}
		dev.Reset()
		res, err := core.New(ds, core.Config{Model: model}).Run(algos.SSSP{Source: src})
		if err != nil {
			log.Fatal(err)
		}
		rop, _ := res.ModelCounts()
		fmt.Printf("%-8s %10d %12.1f %12v %5.0f%%\n",
			model, res.NumIterations(), float64(res.TotalIO().TotalBytes())/1e6,
			res.TotalRuntime().Round(1000), 100*float64(rop)/float64(res.NumIterations()))
		if model == core.ModelHybrid {
			hybrid = res
		}
	}

	// Follow the shortest path to the farthest reached page.
	dist := hybrid.Values
	far, farDist := src, 0.0
	reached := 0
	for v, dv := range dist {
		if math.IsInf(dv, 1) {
			continue
		}
		reached++
		if dv > farDist {
			far, farDist = graph.VertexID(v), dv
		}
	}
	fmt.Printf("\nreached %d/%d pages; farthest page %d at distance %.2f\n",
		reached, g.NumVertices, far, farDist)

	// Reconstruct the path by walking predecessors (any in-neighbor u
	// with dist[u] + w == dist[v]).
	in := graph.BuildInCSR(g)
	path := []graph.VertexID{far}
	for v := far; v != src && len(path) < 64; {
		nbrs, ws := in.Neighbors(v), in.NeighborWeights(v)
		found := false
		for i, u := range nbrs {
			if !math.IsInf(dist[u], 1) && math.Abs(dist[u]+float64(ws[i])-dist[v]) < 1e-6 {
				v = u
				path = append(path, v)
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	fmt.Printf("shortest path has %d hops:", len(path)-1)
	for i := len(path) - 1; i >= 0; i-- {
		if i < len(path)-1 {
			fmt.Print(" →")
		}
		fmt.Printf(" %d", path[i])
		if len(path) > 12 && i == len(path)-6 {
			fmt.Print(" → …")
			i = 5
		}
	}
	fmt.Println()
}
