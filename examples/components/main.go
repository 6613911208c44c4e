// Components: weakly-connected-component analysis with a live view of the
// hybrid strategy's model switching.
//
// WCC starts with every vertex active (dense → COP) and drains toward a
// sparse tail (→ ROP): the exact scenario of the paper's Figure 8(b). The
// example prints the per-iteration frontier density and the model the
// I/O-based predictor chose, then summarizes the component size
// distribution.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

func main() {
	d, err := gen.ByName("ukunion-sim")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	sym := g.Symmetrize() // WCC treats links as undirected (paper §3.1)
	fmt.Printf("web graph %s: %d pages, %d links (%d after symmetrizing)\n",
		d.Name, g.NumVertices, g.NumEdges(), sym.NumEdges())

	dev := storage.NewDevice(storage.HDD)
	ds, err := blockstore.BuildOpts(storage.NewMemStore(dev), sym, blockstore.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	dev.Reset()
	res, err := core.New(ds, core.Config{Model: core.ModelHybrid}).Run(algos.WCC{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-5s %-6s %10s  %s\n", "iter", "model", "active", "frontier density")
	for _, it := range res.Iterations {
		frac := float64(it.ActiveVertices) / float64(g.NumVertices)
		bar := strings.Repeat("#", int(frac*40+0.5))
		fmt.Printf("%-5d %-6s %10d  |%-40s| %5.1f%%\n", it.Iter+1, it.Model, it.ActiveVertices, bar, 100*frac)
	}
	rop, cop := res.ModelCounts()
	fmt.Printf("\nconverged in %d iterations (%d COP while dense, %d ROP in the sparse tail)\n",
		res.NumIterations(), cop, rop)
	fmt.Printf("I/O %0.1f MB, modeled runtime %v\n",
		float64(res.TotalIO().TotalBytes())/1e6, res.TotalRuntime().Round(1000))

	sizes := algos.ComponentSizes(res.Values)
	type comp struct{ label, size int }
	var comps []comp
	for l, s := range sizes {
		comps = append(comps, comp{l, s})
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a].size > comps[b].size })
	fmt.Printf("\n%d weakly connected components; largest:\n", len(comps))
	for i, c := range comps {
		if i == 5 {
			break
		}
		fmt.Printf("  component %-8d %8d pages (%.2f%%)\n", c.label, c.size, 100*float64(c.size)/float64(g.NumVertices))
	}
}
