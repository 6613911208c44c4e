// Socialrank: influence ranking on a Twitter-scale social network
// analogue — the workload class the paper's introduction motivates
// ("social networks, web graphs").
//
// It runs standard PageRank (always-active, COP-dominant) and
// PageRank-Delta (frontier shrinks as residuals decay, so the hybrid
// strategy switches to ROP late in the run), compares their top accounts
// and their I/O bills.
package main

import (
	"fmt"
	"log"
	"sort"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

func main() {
	d, err := gen.ByName("twitter-sim")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	fmt.Printf("social graph %s: %d users, %d follow edges\n", d.Name, g.NumVertices, g.NumEdges())

	build := func() (*core.Engine, *storage.Device) {
		dev := storage.NewDevice(storage.HDD)
		ds, err := blockstore.BuildOpts(storage.NewMemStore(dev), g, blockstore.Options{P: 8})
		if err != nil {
			log.Fatal(err)
		}
		dev.Reset()
		return core.New(ds, core.Config{Model: core.ModelHybrid, Tolerance: 1e-10, MaxIters: 200}), dev
	}

	// Standard PageRank: every vertex recomputes every iteration.
	engine, _ := build()
	pr, err := engine.Run(&algos.PageRank{})
	if err != nil {
		log.Fatal(err)
	}

	// PageRank-Delta: propagate residuals; inactive once converged.
	engine2, _ := build()
	prd, err := engine2.Run(&algos.PageRankDelta{Epsilon: 1e-10})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPageRank:       %3d iterations, I/O %7.1f MB, modeled runtime %v\n",
		pr.NumIterations(), float64(pr.TotalIO().TotalBytes())/1e6, pr.TotalRuntime().Round(1000))
	rop, cop := prd.ModelCounts()
	fmt.Printf("PageRank-Delta: %3d iterations, I/O %7.1f MB, modeled runtime %v (%d ROP / %d COP)\n",
		prd.NumIterations(), float64(prd.TotalIO().TotalBytes())/1e6, prd.TotalRuntime().Round(1000), rop, cop)

	// Top influencers under both (PageRank-Delta values are unnormalized;
	// ranking order is what matters).
	type ranked struct {
		id    int
		score float64
	}
	top := func(values []float64, k int) []ranked {
		rs := make([]ranked, len(values))
		for i, v := range values {
			rs[i] = ranked{i, v}
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a].score > rs[b].score })
		return rs[:k]
	}
	const k = 10
	prTop, prdTop := top(pr.Values, k), top(prd.Values, k)
	fmt.Printf("\ntop-%d influencers:\n  %-6s  %-12s | %-6s %-12s\n", k, "PR id", "score", "PRΔ id", "score")
	agree := 0
	prSet := map[int]bool{}
	for i := 0; i < k; i++ {
		prSet[prTop[i].id] = true
	}
	for i := 0; i < k; i++ {
		if prSet[prdTop[i].id] {
			agree++
		}
		fmt.Printf("  %-6d  %-12.3e | %-6d %-12.3e\n", prTop[i].id, prTop[i].score, prdTop[i].id, prdTop[i].score)
	}
	fmt.Printf("top-%d agreement: %d/%d\n", k, agree, k)
}
