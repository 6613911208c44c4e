package algos_test

import (
	"fmt"
	"log"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// cycleStore builds a 4-cycle's dual-block store (every vertex has rank
// 1/4 under PageRank).
func cycleStore() *blockstore.DualStore {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%4))
	}
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

// ExamplePageRank runs PageRank to a tolerance on a symmetric cycle, where
// every vertex must end with the same rank.
func ExamplePageRank() {
	engine := core.New(cycleStore(), core.Config{Tolerance: 1e-12, MaxIters: 1000, Threads: 1})
	res, err := engine.Run(&algos.PageRank{})
	if err != nil {
		log.Fatal(err)
	}
	for v, r := range res.Values {
		fmt.Printf("rank[%d] = %.4f\n", v, r)
	}
	// Output:
	// rank[0] = 0.2500
	// rank[1] = 0.2500
	// rank[2] = 0.2500
	// rank[3] = 0.2500
}

// ExampleWCC labels components with their smallest vertex ID. WCC requires
// a symmetric edge set, so the caller symmetrizes first.
func ExampleWCC() {
	g := graph.New(5)
	g.AddEdge(0, 1) // component {0, 1}
	g.AddEdge(3, 4) // component {3, 4}; vertex 2 is alone
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g.Symmetrize(), blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.New(ds, core.Config{Threads: 1}).Run(algos.WCC{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Values)
	// Output:
	// [0 0 2 3 3]
}

// ExampleKCore peels a graph at k=2: the triangle survives, the pendant
// vertex does not.
func ExampleKCore() {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3) // pendant
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g.Symmetrize(), blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.New(ds, core.Config{Threads: 1}).Run(algos.KCore{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(algos.InCore(res.Values, 2))
	// Output:
	// [true true true false]
}
