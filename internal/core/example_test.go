package core_test

import (
	"fmt"
	"log"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// ExampleEngine_Run builds a small graph's dual-block representation on a
// simulated HDD and runs BFS with the hybrid update strategy.
func ExampleEngine_Run() {
	g := graph.New(6)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}

	dev := storage.NewDevice(storage.HDD)
	ds, err := blockstore.BuildOpts(storage.NewMemStore(dev), g, blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}
	dev.Reset() // exclude preprocessing from the run's accounting

	engine := core.New(ds, core.Config{Model: core.ModelHybrid, Threads: 1})
	res, err := engine.Run(algos.BFS{Source: 0})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("converged:", res.Converged)
	for v, d := range res.Values {
		fmt.Printf("dist[%d] = %.0f\n", v, d)
	}
	// Output:
	// converged: true
	// dist[0] = 0
	// dist[1] = 1
	// dist[2] = 2
	// dist[3] = 3
	// dist[4] = 1
	// dist[5] = 2
}

// ExampleConfig_forcedModel forces the Column-oriented Pull model and
// inspects which model each iteration executed.
func ExampleConfig() {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.New(ds, core.Config{Model: core.ModelCOP, Threads: 1}).Run(algos.BFS{Source: 0})
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range res.Iterations {
		fmt.Printf("iteration %d ran %s with %d active vertices\n", it.Iter+1, it.Model, it.ActiveVertices)
	}
	// Output:
	// iteration 1 ran COP with 1 active vertices
	// iteration 2 ran COP with 1 active vertices
	// iteration 3 ran COP with 1 active vertices
}
