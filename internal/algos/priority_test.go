package algos

import (
	"math"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// TestDeltaSSSPBucketStatsMonotone checks the bucketed iteration metadata:
// every iteration is marked bucketed and the bucket priority never
// decreases (delta-stepping settles distance buckets in increasing order).
func TestDeltaSSSPBucketStatsMonotone(t *testing.T) {
	g := testGraphs(t)["rmat"]
	src := gen.BFSSource(g)
	res := run(t, g, DeltaSSSP{Source: src, Delta: 2}, 4, core.ModelHybrid)
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations")
	}
	prev := int64(-1 << 62)
	sawPending := false
	for _, it := range res.Iterations {
		if !it.Bucketed {
			t.Fatalf("iter %d not marked bucketed", it.Iter)
		}
		if it.BucketPri < prev {
			t.Fatalf("iter %d: bucket priority %d after %d — drained out of order", it.Iter, it.BucketPri, prev)
		}
		prev = it.BucketPri
		if it.BucketPending > 0 {
			sawPending = true
		}
	}
	if !sawPending {
		t.Fatal("no iteration reported parked vertices — the run was never actually bucketed")
	}
}

// TestDeltaSSSPAnyWidthMatchesBellmanFord holds delta-stepping to the
// Bellman–Ford oracle, bit for bit, at widths that stress the bucket index:
// one so narrow that a distance divides past 2⁶³, one far narrower than any
// edge, one wider than every distance, and NaN, which the program reads as
// the default width. A width the bucket index cannot represent must cost
// buckets, never a distance.
func TestDeltaSSSPAnyWidthMatchesBellmanFord(t *testing.T) {
	g := testGraphs(t)["rmat"]
	src := gen.BFSSource(g)
	want := OracleBellmanFord(g, src)
	for _, delta := range []float64{1e-300, 1e-9, math.Inf(1), math.NaN()} {
		res := run(t, g, DeltaSSSP{Source: src, Delta: delta}, 4, core.ModelHybrid)
		if !res.Converged {
			t.Fatalf("Δ = %g: no convergence in %d iterations", delta, res.NumIterations())
		}
		for v := range want {
			if math.Float64bits(res.Values[v]) != math.Float64bits(want[v]) {
				t.Fatalf("Δ = %g: dist[%d] = %v, Bellman–Ford %v", delta, v, res.Values[v], want[v])
			}
		}
	}
}

// TestCorenessConsistentWithKCore cross-checks the decomposition against
// the fixed-K peeling oracle: v is in the k-core iff its coreness ≥ k.
func TestCorenessConsistentWithKCore(t *testing.T) {
	g := testGraphs(t)["rmat"].Symmetrize()
	coreness := OracleCoreness(g)
	for _, k := range []int{2, 3, 5, 8} {
		inCore := InCore(OracleKCore(g, k), k)
		for v := range coreness {
			if got := coreness[v] >= float64(k); got != inCore[v] {
				t.Fatalf("k=%d vertex %d: coreness=%v says in-core=%v, KCore oracle says %v",
					k, v, coreness[v], got, inCore[v])
			}
		}
	}
}

// TestBucketedProgramsOnSimGraphs is the acceptance sweep: delta-stepping
// SSSP and bucket-peeled coreness match their serial oracles on three
// shrunk registry sim graphs (a social analogue and both web analogues).
func TestBucketedProgramsOnSimGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-graph sweep is slow for -short")
	}
	for _, name := range []string{"livejournal-sim", "uk-sim", "ukunion-sim"} {
		t.Run(name, func(t *testing.T) {
			d, err := gen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Quick-style shrink squared: oracle sweeps over five
			// engine runs per dataset stay in test-suite budget.
			d.Vertices /= 16
			d.TargetEdges /= 32
			g := d.Build()
			src := gen.BFSSource(g)
			wantDist := OracleBellmanFord(g, src)
			for _, model := range []core.Model{core.ModelROP, core.ModelHybrid} {
				res := run(t, g, DeltaSSSP{Source: src, Delta: 2}, 8, model)
				wantClose(t, name+"/SSSP-Delta/"+model.String(), res.Values, wantDist, 1e-9)
			}
			wantCore := OracleCoreness(g.Symmetrize())
			for _, model := range []core.Model{core.ModelROP, core.ModelHybrid} {
				res := run(t, g, &Coreness{}, 8, model)
				wantClose(t, name+"/Coreness/"+model.String(), res.Values, wantCore, 0)
			}
		})
	}
}

// TestPriorityProgramRejectsCheckpointing pins the engine-side guard:
// parked bucket state is not derivable from a value checkpoint, so
// checkpointed or resumed runs must fail fast.
func TestPriorityProgramRejectsCheckpointing(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g = g.Symmetrize()
	for _, mod := range []func(*core.Config){
		func(c *core.Config) { c.CheckpointEvery = 1 },
		func(c *core.Config) { c.Resume = true },
	} {
		ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g, blockstore.Options{P: 2, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Model: core.ModelCOP, Threads: 2}
		mod(&cfg)
		if _, err := core.New(ds, cfg).Run(&Coreness{}); err == nil {
			t.Fatal("priority program with checkpointing did not error")
		}
	}
}
