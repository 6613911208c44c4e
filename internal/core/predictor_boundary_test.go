package core

import (
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// Boundary behavior of the §3.4 predictor: the extremes of the frontier
// spectrum, monotonicity in between, and the run-granular cache discounts.

func TestPredictEmptyFrontierCostsNothingForROP(t *testing.T) {
	ds := buildStore(t, prefetchTestGraph(), 4, storage.HDD)
	e := New(ds, Config{})
	crop, ccop := e.PredictCosts(bitset.NewFrontier(600))
	if crop != 0 {
		t.Fatalf("C_rop = %v for an empty frontier, want 0", crop)
	}
	// COP's column streams are frontier-independent — full price even with
	// nothing active (this is why the engine, not the predictor, detects
	// convergence).
	if ccop <= 0 {
		t.Fatalf("C_cop = %v for an empty frontier, want the full scan cost", ccop)
	}
}

func TestPredictMonotoneInFrontierWithInvariantCOP(t *testing.T) {
	ds := buildStore(t, prefetchTestGraph(), 4, storage.HDD)
	e := New(ds, Config{})

	frontiers := []*bitset.Frontier{
		frontierWith(600, 0),                // one vertex, one row
		frontierWith(600, 0, 20, 110),       // several vertices, one row
		frontierWith(600, 0, 200, 400, 580), // every row
		bitset.FullFrontier(600),
	}
	var lastCrop, refCcop int64
	for fi, f := range frontiers {
		crop, ccop := e.PredictCosts(f)
		if int64(crop) < lastCrop {
			t.Fatalf("frontier %d: C_rop %v below the smaller frontier's %v", fi, crop, lastCrop)
		}
		lastCrop = int64(crop)
		if fi == 0 {
			refCcop = int64(ccop)
		} else if int64(ccop) != refCcop {
			t.Fatalf("frontier %d: C_cop %v varies with the frontier (was %v)", fi, ccop, refCcop)
		}
	}
}

func TestPredictRanksModelsAsTheSimulatorCharges(t *testing.T) {
	// The predictor is calibrated to a 2x band (see
	// TestPredictorTracksActualCosts), so its contract at the frontier
	// extremes is: stay inside a 3x band of the measured cost even at the
	// single-vertex boundary, and rank the models correctly whenever the
	// predicted gap is decisive (outside the calibration slack). At a
	// singleton frontier C_rop overprices — it charges one positioning per
	// nonempty block of the row though one vertex touches at most its
	// out-degree — which is why close calls are settled by α, not here.
	for _, members := range [][]int{{7}, allVertices(600)} {
		measure := func(model Model) (predicted [2]int64, actual int64) {
			ds := buildStore(t, prefetchTestGraph(), 4, storage.HDD)
			e := New(ds, Config{Model: model, Threads: 4, MaxIters: 1})
			crop, ccop := e.PredictCosts(frontierWith(600, members...))
			res, err := e.Run(sparseStart{members: members})
			if err != nil {
				t.Fatal(err)
			}
			return [2]int64{int64(crop), int64(ccop)}, int64(res.Iterations[0].IOTime)
		}
		pred, ropTime := measure(ModelROP)
		_, copTime := measure(ModelCOP)
		for _, m := range []struct {
			name       string
			pred, meas int64
		}{{"C_rop", pred[0], ropTime}, {"C_cop", pred[1], copTime}} {
			if m.pred > 3*m.meas || m.meas > 3*m.pred {
				t.Fatalf("frontier size %d: %s=%d vs measured %d, outside the 3x boundary band",
					len(members), m.name, m.pred, m.meas)
			}
		}
		decisive := pred[0] >= 2*pred[1] || pred[1] >= 2*pred[0]
		if decisive && (pred[0] < pred[1]) != (ropTime < copTime) {
			t.Fatalf("frontier size %d: decisive prediction C_rop=%d vs C_cop=%d ranks against the simulator (rop=%d cop=%d)",
				len(members), pred[0], pred[1], ropTime, copTime)
		}
		if len(members) == 600 && !decisive {
			t.Fatalf("full frontier not decisively COP: C_rop=%d C_cop=%d", pred[0], pred[1])
		}
	}
}

func TestPredictDiscountsResidentRunsAndPromotedBlocks(t *testing.T) {
	// Run-granular residency discounts C_rop proportionally; a promoted
	// whole out-block prices at zero. Both discounts must strictly tighten
	// the cold prediction without ever touching C_cop.
	ds := buildStore(t, prefetchTestGraph(), 4, storage.HDD)
	e := New(ds, Config{CacheBudgetBytes: 64 << 20})
	f := bitset.FullFrontier(600)
	cropCold, ccopCold := e.PredictCosts(f)

	// Half of out-block (0,0) resident as runs.
	half := uint32(e.ds.OutBlockBytes(0, 0) / 2)
	e.cache.PutRun(0, 0, 0, half, make([]byte, half), 1<<40)
	cropRuns, ccopRuns := e.PredictCosts(f)
	if cropRuns >= cropCold {
		t.Fatalf("resident runs did not discount C_rop: %v vs cold %v", cropRuns, cropCold)
	}

	// The whole block promoted: strictly cheaper again.
	e.cache.Put(blockstore.BlockKey{Kind: blockstore.KindOutBlock, I: 0, J: 0},
		&blockstore.CachedBlock{Payload: make([]byte, e.ds.OutBlockBytes(0, 0))})
	cropPromoted, ccopPromoted := e.PredictCosts(f)
	if cropPromoted >= cropRuns {
		t.Fatalf("promoted block did not discount past runs: %v vs %v", cropPromoted, cropRuns)
	}
	if ccopRuns != ccopCold || ccopPromoted != ccopCold {
		t.Fatalf("out-block residency moved C_cop: cold %v runs %v promoted %v", ccopCold, ccopRuns, ccopPromoted)
	}
}

func frontierWith(n int, members ...int) *bitset.Frontier {
	f := bitset.NewFrontier(n)
	for _, m := range members {
		f.Add(m)
	}
	return f
}

func allVertices(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	return vs
}
