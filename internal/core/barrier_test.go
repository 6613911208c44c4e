package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// tendrilGraph is a seeded random core with weighted edges plus a few long
// paths hanging off it over the last vertex IDs: a traversal from vertex 0
// floods the core in a few wide iterations and then crawls down the
// tendrils a handful of vertices at a time — the iterations in which most
// destination intervals see no push.
func tendrilGraph(seed int64) *graph.Graph {
	const hub, tendrils, length = 1200, 6, 50
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(hub + tendrils*length)
	for v := 1; v < hub; v++ { // reachable from 0
		g.AddWeightedEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), float32(1+rng.Intn(9)))
	}
	for i := 0; i < 4*hub; i++ {
		g.AddWeightedEdge(graph.VertexID(rng.Intn(hub)), graph.VertexID(rng.Intn(hub)), float32(1+rng.Intn(9)))
	}
	for k := 0; k < tendrils; k++ {
		prev := rng.Intn(hub)
		for v := hub + k*length; v < hub+(k+1)*length; v++ {
			g.AddWeightedEdge(graph.VertexID(prev), graph.VertexID(v), float32(1+rng.Intn(9)))
			prev = v
		}
	}
	g.Dedup()
	return g
}

type barrierRun struct {
	iters  []core.IterStats
	values []float64
}

// driveSteps runs prog to convergence through the public step API, copying
// S into D before the first iteration only — or, for the twin, before every
// one — and after each iteration demands D == S bit for bit.
func driveSteps(t *testing.T, ds *blockstore.DualStore, prog core.Program, model core.Model, initEvery bool) barrierRun {
	t.Helper()
	e := core.New(ds, core.Config{Model: model, Threads: 2})
	n := ds.Layout.NumVertices
	s, frontier := prog.Init(e.Context())
	d := make([]float64, n)
	var run barrierRun
	for iter := 0; !frontier.Empty(); iter++ {
		next := bitset.NewFrontier(n)
		step := e.BeginIter(prog, iter, core.ModelHybrid, frontier, next)
		if iter == 0 || initEvery {
			core.InitAccumulators(prog.Kind(), s, d)
		}
		if err := step.Exec(s, d); err != nil {
			t.Fatal(err)
		}
		step.FinalizeOwned(s, d)
		st, err := step.End()
		if err != nil {
			t.Fatal(err)
		}
		for v := range s {
			if math.Float64bits(s[v]) != math.Float64bits(d[v]) {
				t.Fatalf("after iteration %d (%v): d[%d] = %v but s[%d] = %v", iter, st.Model, v, d[v], v, s[v])
			}
		}
		run.iters = append(run.iters, st)
		frontier = next
	}
	run.values = s
	return run
}

// TestMonotoneBarrierInvariant pins what lets the run loops copy S into D
// once per run instead of once per iteration: a monotone iteration, ROP or
// COP, ends with D == S bit for bit, so skipping the copy changes nothing an
// iteration reports or computes.
func TestMonotoneBarrierInvariant(t *testing.T) {
	g := tendrilGraph(7)
	for _, pc := range []struct {
		prog     core.Program
		g        *graph.Graph
		weighted bool
	}{
		{algos.BFS{Source: 0}, g, false},
		{algos.WCC{}, g.Symmetrize(), false},
		{algos.SSSP{Source: 0}, g, true},
	} {
		for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
			ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), pc.g,
				blockstore.Options{P: 8, Format: format, Weighted: pc.weighted})
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
				t.Run(fmt.Sprintf("%s/%v/%v", pc.prog.Name(), format, model), func(t *testing.T) {
					once := driveSteps(t, ds, pc.prog, model, false)
					every := driveSteps(t, ds, pc.prog, model, true)
					if len(once.iters) != len(every.iters) {
						t.Fatalf("%d iterations, %d when D is re-copied every iteration", len(once.iters), len(every.iters))
					}
					rop := 0
					for k, a := range once.iters {
						b := every.iters[k]
						if a.Model != b.Model || a.ActiveVertices != b.ActiveVertices || a.ActiveEdges != b.ActiveEdges || a.IO != b.IO {
							t.Fatalf("iteration %d differs from the re-copying twin:\n got %v %d active %d edges %+v\nwant %v %d active %d edges %+v",
								k, a.Model, a.ActiveVertices, a.ActiveEdges, a.IO, b.Model, b.ActiveVertices, b.ActiveEdges, b.IO)
						}
						if a.Model == core.ModelROP {
							rop++
						}
					}
					for v := range once.values {
						if math.Float64bits(once.values[v]) != math.Float64bits(every.values[v]) {
							t.Fatalf("value[%d] = %v, twin %v", v, once.values[v], every.values[v])
						}
					}
					if model == core.ModelHybrid && (rop == 0 || rop == len(once.iters)) {
						t.Fatalf("hybrid ran %d of %d iterations as ROP: the test no longer crosses a model switch", rop, len(once.iters))
					}
				})
			}
		}
	}
}
