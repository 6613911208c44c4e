package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// testBFS is a minimal monotone program (hop counts from vertex 0) used to
// exercise engine mechanics without importing the algos package.
type testBFS struct{}

func (testBFS) Name() string         { return "testBFS" }
func (testBFS) Kind() Kind           { return Monotone }
func (testBFS) NeedsSymmetric() bool { return false }
func (testBFS) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = math.Inf(1)
	}
	vals[0] = 0
	f := bitset.NewFrontier(ctx.NumVertices)
	f.Add(0)
	return vals, f
}
func (testBFS) Message(_ graph.VertexID, srcVal float64, _ float32) float64 { return srcVal + 1 }
func (testBFS) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}
func (testBFS) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

// testCount is a minimal additive program: each vertex counts its in-edges
// from active sources plus a base of 1, converging immediately after one
// iteration when MaxIters bounds it.
type testCount struct{}

func (testCount) Name() string                                           { return "testCount" }
func (testCount) Kind() Kind                                             { return Additive }
func (testCount) NeedsSymmetric() bool                                   { return false }
func (testCount) Message(_ graph.VertexID, _ float64, _ float32) float64 { return 1 }
func (testCount) Combine(acc, msg float64) (float64, bool)               { return acc + msg, true }
func (testCount) Apply(_ graph.VertexID, _, acc float64) (float64, bool) { return acc, true }
func (testCount) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	return make([]float64, ctx.NumVertices), bitset.FullFrontier(ctx.NumVertices)
}

// buildStore materializes g over a fresh simulated device.
func buildStore(t *testing.T, g *graph.Graph, p int, prof storage.Profile) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(prof)), g, blockstore.Options{P: p, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// pathGraph returns 0→1→…→n-1.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return g
}

func TestEngineBFSOnPathAllModels(t *testing.T) {
	for _, model := range []Model{ModelROP, ModelCOP, ModelHybrid} {
		g := pathGraph(20)
		ds := buildStore(t, g, 4, storage.HDD)
		e := New(ds, Config{Model: model, Threads: 2})
		res, err := e.Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", model)
		}
		for v := 0; v < 20; v++ {
			if res.Values[v] != float64(v) {
				t.Fatalf("%v: dist[%d] = %v", model, v, res.Values[v])
			}
		}
	}
}

func TestEngineCOPPathCorrectAndBounded(t *testing.T) {
	// COP over a path: one BFS level per iteration (activation is gated
	// on the previous frontier), n-1 iterations, exact distances.
	g := pathGraph(64)
	ds := buildStore(t, g, 8, storage.HDD)
	e := New(ds, Config{Model: ModelCOP, Threads: 1})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumIterations(); got > 64 {
		t.Fatalf("iterations = %d, want <= 64", got)
	}
	for v := 0; v < 64; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, res.Values[v])
		}
	}
}

// wave is a monotone min-label program with a full initial frontier (WCC
// on a path): used to observe the eager value synchronization of §3.3 —
// later columns pull values already improved by earlier columns within the
// same iteration.
type wave struct{}

func (wave) Name() string         { return "wave" }
func (wave) Kind() Kind           { return Monotone }
func (wave) NeedsSymmetric() bool { return false }
func (wave) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = float64(i)
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}
func (wave) Message(_ graph.VertexID, srcVal float64, _ float32) float64 { return srcVal }
func (wave) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}
func (wave) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) { return acc, acc != prev }

func TestEngineEagerSyncPropagatesAcrossColumns(t *testing.T) {
	// Path 0→…→15, P=4 (intervals of 4). Iteration 0, all active:
	// without eager sync, vertex 4 would pull s[3]=3; with the paper's
	// per-column synchronization, column 0 first improves s[1..3] to
	// [0,1,2], so column 1's vertex 4 pulls 2 — strictly better than the
	// synchronous value.
	g := pathGraph(16)
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{Model: ModelCOP, Threads: 1, MaxIters: 1})
	res, err := e.Run(wave{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[4]; got != 2 {
		t.Fatalf("after one eager COP iteration, label[4] = %v, want 2", got)
	}
	// Synchronous would give label[4] = 3.
}

func TestEngineEagerSyncPropagatesAcrossRows(t *testing.T) {
	// The ROP twin: row 0 pushes 3→4 and leaves d[4] = 3; synchronized
	// before row 1 runs, vertex 4 pushes that 3 on to vertex 5. Without the
	// per-row synchronization row 1 would push the stale s[4] = 4.
	g := pathGraph(16)
	ds := buildStore(t, g, 4, storage.HDD)
	for _, threads := range []int{1, 2, 8} {
		e := New(ds, Config{Model: ModelROP, Threads: threads, MaxIters: 1})
		res, err := e.Run(wave{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Values[5]; got != 3 {
			t.Fatalf("threads=%d: after one eager ROP iteration, label[5] = %v, want 3", threads, got)
		}
	}
}

// zeroSum is a monotone program whose combine is a sum of zero messages:
// every accumulator ends equal to its old value but, started from -0, with
// the other zero's bits.
type zeroSum struct{ wave }

func (zeroSum) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = math.Copysign(0, -1)
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}
func (zeroSum) Message(graph.VertexID, float64, float32) float64 { return 0 }
func (zeroSum) Combine(acc, msg float64) (float64, bool)         { return acc + msg, true }

func TestMonotoneCOPKeepsSBitsWhereValuesCompareEqual(t *testing.T) {
	// Column finalization assigns S ← D only where the values differ, and
	// -0 == +0: D must be put back to S's bits there, or the barrier
	// invariant D == S (TestMonotoneBarrierInvariant) slips by a sign bit.
	const n = 16
	ds := buildStore(t, pathGraph(n), 4, storage.HDD)
	e := New(ds, Config{Threads: 1})
	prog := zeroSum{}
	s, frontier := prog.Init(e.Context())
	d := make([]float64, n)
	next := bitset.NewFrontier(n)
	step := e.BeginIter(prog, 0, ModelCOP, frontier, next)
	InitAccumulators(prog.Kind(), s, d)
	if err := step.Exec(s, d); err != nil {
		t.Fatal(err)
	}
	if _, err := step.End(); err != nil {
		t.Fatal(err)
	}
	if !next.Empty() {
		t.Fatalf("%d vertices activated by a sum of zeros", next.Count())
	}
	if !sameBits(s, d) {
		t.Fatalf("d = %v, s = %v: bits differ after a monotone COP iteration", d, s)
	}
}

func TestEngineFrontierDrainStops(t *testing.T) {
	g := pathGraph(5)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{Model: ModelROP})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.ActiveVertices == 0 {
		t.Fatal("iteration recorded with empty frontier")
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
}

func TestEngineMaxIters(t *testing.T) {
	g := pathGraph(50)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{Model: ModelROP, MaxIters: 3})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumIterations() != 3 {
		t.Fatalf("iterations = %d", res.NumIterations())
	}
	if res.Converged {
		t.Fatal("reported converged despite MaxIters stop")
	}
}

func TestEngineIterStatsAccounting(t *testing.T) {
	g := pathGraph(30)
	ds := buildStore(t, g, 3, storage.HDD)
	e := New(ds, Config{Model: ModelCOP})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.IO.TotalBytes() <= 0 {
			t.Fatalf("iter %d: no I/O accounted", it.Iter)
		}
		if it.IOTime <= 0 {
			t.Fatalf("iter %d: no I/O time", it.Iter)
		}
		if it.Runtime < it.IOTime || it.Runtime < it.ComputeModeled {
			t.Fatalf("iter %d: runtime %v below max(io %v, compute %v)", it.Iter, it.Runtime, it.IOTime, it.ComputeModeled)
		}
		if it.Model != ModelCOP {
			t.Fatalf("iter %d: model %v", it.Iter, it.Model)
		}
	}
	if res.TotalIO().TotalBytes() <= 0 || res.TotalRuntime() <= 0 {
		t.Fatal("totals not aggregated")
	}
	if res.TotalIOTime() > res.TotalRuntime() {
		t.Fatal("io time exceeds runtime")
	}
}

func TestEngineActiveEdgeAccounting(t *testing.T) {
	// Star from 0: first iteration has 1 active vertex with out-degree
	// n-1.
	n := 10
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, graph.VertexID(i))
	}
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{Model: ModelROP})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	it0 := res.Iterations[0]
	if it0.ActiveVertices != 1 || it0.ActiveEdges != int64(n-1) {
		t.Fatalf("iter0: %d vertices, %d edges", it0.ActiveVertices, it0.ActiveEdges)
	}
}

func TestHybridPicksROPForSparseFrontier(t *testing.T) {
	// A long path on HDD: one active vertex per iteration, so ROP's one
	// random access beats streaming the whole edge set. The path must be
	// long enough for that: a raw store's in-blocks carry one record per
	// edge, and a forced COP iteration over 2000 vertices
	// costs less than a forced ROP one (116 µs against 223 µs), over 6000
	// more (345 µs against 283 µs). The forced runs hold the premise.
	g := pathGraph(6000)
	var forced [2]time.Duration
	for k, model := range []Model{ModelROP, ModelCOP} {
		res, err := New(buildStore(t, g, 4, storage.HDD), Config{Model: model, MaxIters: 1}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		forced[k] = res.Iterations[0].Runtime
	}
	if forced[0] >= forced[1] {
		t.Fatalf("a forced ROP iteration costs %v, a forced COP one %v: the path is too short for ROP to win", forced[0], forced[1])
	}
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{Model: ModelHybrid})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	rop, cop := res.ModelCounts()
	if rop == 0 {
		t.Fatalf("hybrid never chose ROP (rop=%d cop=%d)", rop, cop)
	}
	it0 := res.Iterations[0]
	if it0.PredictedROP <= 0 || it0.PredictedCOP <= 0 {
		t.Fatalf("predictions not recorded: %+v", it0)
	}
	if it0.PredictedROP > it0.PredictedCOP {
		t.Fatal("iteration 0 chose ROP but predicted it slower")
	}
}

func TestHybridAlphaShortcutPicksCOP(t *testing.T) {
	// Full frontier (additive count program): above α, COP without
	// prediction.
	g := pathGraph(100)
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{Model: ModelHybrid, MaxIters: 1})
	res, err := e.Run(testCount{})
	if err != nil {
		t.Fatal(err)
	}
	it0 := res.Iterations[0]
	if it0.Model != ModelCOP {
		t.Fatalf("model = %v, want COP via α shortcut", it0.Model)
	}
	if it0.PredictedROP != 0 || it0.PredictedCOP != 0 {
		t.Fatal("α shortcut should skip prediction")
	}
}

func TestEngineAdditiveCountCorrectAllModels(t *testing.T) {
	// In-degree counting must be exact under both models (no double
	// application, no lost updates).
	g := graph.New(6)
	edges := [][2]int{{0, 1}, {2, 1}, {3, 1}, {1, 4}, {4, 5}, {0, 5}, {5, 1}}
	for _, e := range edges {
		g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	wantIn := g.InDegrees()
	for _, model := range []Model{ModelROP, ModelCOP} {
		ds := buildStore(t, g, 3, storage.HDD)
		e := New(ds, Config{Model: model, MaxIters: 1})
		res, err := e.Run(testCount{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 6; v++ {
			if res.Values[v] != float64(wantIn[v]) {
				t.Fatalf("%v: count[%d] = %v, want %d", model, v, res.Values[v], wantIn[v])
			}
		}
	}
}

func TestEngineToleranceStopsAdditive(t *testing.T) {
	// The count program's values stop changing after iteration 2 on a
	// fixed graph? They stay constant from iteration 1 onward (counts of
	// full frontier), so MaxDelta goes to 0 at iteration 2.
	g := pathGraph(10)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{Model: ModelCOP, Tolerance: 1e-12, MaxIters: 50})
	res, err := e.Run(testCount{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("tolerance stop not reported as convergence")
	}
	if res.NumIterations() >= 50 {
		t.Fatal("tolerance did not stop the run")
	}
}

func TestEngineRejectsBadInit(t *testing.T) {
	g := pathGraph(5)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{})
	if _, err := e.Run(badInitProgram{}); err == nil {
		t.Fatal("short values accepted")
	}
}

type badInitProgram struct{ testBFS }

func (badInitProgram) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	return make([]float64, 1), bitset.NewFrontier(ctx.NumVertices)
}

func TestEngineOverCompressedStore(t *testing.T) {
	// The engine must be format-agnostic: identical results over a mixed
	// store that holds every codec, fewer edge bytes moved wherever COP
	// streams compressed in-blocks, and exactly the same bytes under forced
	// ROP, which reads the row view every format stores raw.
	g := compressTestGraph()
	build := func(f blockstore.Format) *blockstore.DualStore { return buildFormat(t, g, f, storage.HDD) }
	for _, model := range []Model{ModelROP, ModelCOP, ModelHybrid} {
		raw, err := New(build(blockstore.FormatRaw), Config{Model: model}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := New(build(blockstore.FormatMixed), Config{Model: model}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range raw.Values {
			if raw.Values[v] != comp.Values[v] {
				t.Fatalf("%v: value[%d] differs across formats", model, v)
			}
		}
		if got, want := comp.TotalIO().ReadBytes(), raw.TotalIO().ReadBytes(); model == ModelROP && got != want || model != ModelROP && got >= want {
			t.Fatalf("%v: compressed store read %d bytes, raw %d", model, got, want)
		}
	}
}

func TestParseModel(t *testing.T) {
	for in, want := range map[string]Model{"hybrid": ModelHybrid, "rop": ModelROP, "cop": ModelCOP, "push": ModelROP, "pull": ModelCOP} {
		got, err := ParseModel(in)
		if err != nil || got != want {
			t.Fatalf("ParseModel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestModelAndKindStrings(t *testing.T) {
	if ModelHybrid.String() != "Hybrid" || ModelROP.String() != "ROP" || ModelCOP.String() != "COP" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model String empty")
	}
	if Monotone.String() != "monotone" || Additive.String() != "additive" || Incremental.String() != "incremental" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("unknown kind String")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Threads <= 0 || c.Alpha != DefaultAlpha || c.MaxIters <= 0 {
		t.Fatalf("defaults: %+v", c)
	}
	neg := Config{Alpha: -1}.WithDefaults()
	if neg.Alpha != -1 {
		t.Fatal("negative alpha overridden")
	}
	// WithDefaults documents that applying it twice changes nothing: the
	// shard coordinator's engines resolve the resolved config again.
	for _, c := range []Config{{}, {Alpha: -1, ReadRetries: 2}, {Threads: 3, MaxIters: 7, PrefetchDepth: 2}} {
		once := c.WithDefaults()
		if twice := once.WithDefaults(); !reflect.DeepEqual(twice, once) {
			t.Fatalf("WithDefaults not idempotent on %+v:\n once  %+v\n twice %+v", c, once, twice)
		}
	}
}

func TestPredictorROPGrowsWithFrontier(t *testing.T) {
	// One active vertex of a path costs ROP two positioned reads: its
	// record and the out-index page holding its entries. A COP scan streams
	// at least one 4-byte record per edge, so a path this long makes the
	// scan dearer than those two reads at the HDD profile's rates.
	twoReads := storage.HDD.RandTime(blockstore.PageBytes+4, 2)
	n := int(twoReads.Seconds()*storage.HDD.SeqBytesPerSec/4) + 2
	g := pathGraph(n)
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{})

	small := bitset.NewFrontier(n)
	small.Add(5)
	cropSmall, ccopSmall := e.PredictCosts(small)

	big := bitset.NewFrontier(n)
	for v := 0; v < 500; v++ {
		big.Add(v)
	}
	cropBig, ccopBig := e.PredictCosts(big)

	if cropSmall >= cropBig {
		t.Fatalf("C_rop not increasing: %v >= %v", cropSmall, cropBig)
	}
	if ccopSmall != ccopBig {
		t.Fatalf("C_cop should be frontier-independent: %v vs %v", ccopSmall, ccopBig)
	}
	if cropSmall >= ccopSmall {
		t.Fatalf("tiny frontier should prefer ROP on HDD: crop %v ccop %v", cropSmall, ccopSmall)
	}
}

func TestPredictorRespectsDeviceProfile(t *testing.T) {
	// The same moderately-sized frontier should look relatively cheaper
	// for ROP on SSD than on HDD (Fig. 11's premise).
	g := pathGraph(1000)
	frontier := bitset.NewFrontier(1000)
	for v := 0; v < 100; v++ {
		frontier.Add(v * 7 % 1000)
	}
	ratio := func(prof storage.Profile) float64 {
		ds := buildStore(t, g, 4, prof)
		e := New(ds, Config{})
		crop, ccop := e.PredictCosts(frontier)
		return float64(crop) / float64(ccop)
	}
	if rSSD, rHDD := ratio(storage.SSD), ratio(storage.HDD); rSSD >= rHDD {
		t.Fatalf("ROP/COP cost ratio on SSD (%v) should be below HDD (%v)", rSSD, rHDD)
	}
}

func TestEngineRuntimeUsesMaxOfIOAndCompute(t *testing.T) {
	g := pathGraph(10)
	ds := buildStore(t, g, 2, storage.RAM)
	e := New(ds, Config{Model: ModelCOP})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		want := it.IOTime
		if it.ComputeModeled > want {
			want = it.ComputeModeled
		}
		if it.Runtime != want {
			t.Fatalf("iter %d: runtime %v, want max(%v, %v)", it.Iter, it.Runtime, it.IOTime, it.ComputeModeled)
		}
		if it.ComputeModeled <= 0 {
			t.Fatalf("iter %d: no modeled compute", it.Iter)
		}
	}
}

func TestEngineDeviceAccessor(t *testing.T) {
	g := pathGraph(4)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{})
	if e.Device() == nil || e.Device().Profile().Name != "hdd" {
		t.Fatal("Device accessor wrong")
	}
	if e.Context().NumVertices != 4 {
		t.Fatal("Context accessor wrong")
	}
}

func TestEngineROPSkipsInactiveRows(t *testing.T) {
	// With a single active vertex in interval 0, ROP must not read any
	// in-block/out-block data of other rows: I/O should be far below one
	// full scan.
	g := pathGraph(10000)
	ropRead := func() int64 {
		ds := buildStore(t, g, 8, storage.HDD)
		e := New(ds, Config{Model: ModelROP, MaxIters: 1})
		res, err := e.Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalIO().ReadBytes()
	}()
	copRead := func() int64 {
		ds := buildStore(t, g, 8, storage.HDD)
		e := New(ds, Config{Model: ModelCOP, MaxIters: 1})
		res, err := e.Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalIO().ReadBytes()
	}()
	if ropRead*3 > copRead {
		t.Fatalf("ROP read %d bytes vs COP %d — selective access broken", ropRead, copRead)
	}
}

func TestEngineCOPReadsWholeColumnEveryIteration(t *testing.T) {
	g := pathGraph(1000)
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{Model: ModelCOP, MaxIters: 2})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Fatal("need two iterations")
	}
	// COP cost is constant per iteration (Fig. 8): equal reads.
	r0 := res.Iterations[0].IO.ReadBytes()
	r1 := res.Iterations[1].IO.ReadBytes()
	if r0 != r1 {
		t.Fatalf("COP reads differ across iterations: %d vs %d", r0, r1)
	}
	if r0 < ds.TotalEdgeBytes() {
		t.Fatalf("COP read %d < all edges %d", r0, ds.TotalEdgeBytes())
	}
}

func TestIterStatsPredictionSkippedWhenForced(t *testing.T) {
	g := pathGraph(100)
	ds := buildStore(t, g, 2, storage.HDD)
	e := New(ds, Config{Model: ModelROP, MaxIters: 1})
	res, _ := e.Run(testBFS{})
	if it := res.Iterations[0]; it.PredictedROP != 0 || it.PredictedCOP != 0 {
		t.Fatal("forced model should skip prediction")
	}
}

func TestRuntimeAggregationTiming(t *testing.T) {
	// Sanity: total runtime is the sum of iteration runtimes.
	g := pathGraph(64)
	ds := buildStore(t, g, 4, storage.HDD)
	e := New(ds, Config{Model: ModelCOP, MaxIters: 3})
	res, _ := e.Run(testBFS{})
	var sum time.Duration
	for _, it := range res.Iterations {
		sum += it.Runtime
	}
	if res.TotalRuntime() != sum {
		t.Fatal("TotalRuntime mismatch")
	}
}

func TestModeledComputeTime(t *testing.T) {
	base := ModeledComputeTime(1_000_000, 1000, 10, 1)
	half := ModeledComputeTime(1_000_000, 1000, 10, 2)
	if half >= base {
		t.Fatalf("2 threads %v not below 1 thread %v", half, base)
	}
	capped := ModeledComputeTime(1_000_000, 1000, 10, 64)
	at16 := ModeledComputeTime(1_000_000, 1000, 10, 16)
	if capped != at16 {
		t.Fatalf("threads beyond ModeledCores changed the price: %v vs %v", capped, at16)
	}
	if ModeledComputeTime(0, 0, 0, 4) != 0 {
		t.Fatal("zero work priced nonzero")
	}
	more := ModeledComputeTime(2_000_000, 1000, 10, 1)
	if more <= base {
		t.Fatal("more work not pricier")
	}
}

func TestRuntimeDeterministic(t *testing.T) {
	// Two identical runs must report identical modeled runtimes.
	g := pathGraph(500)
	run := func() []time.Duration {
		ds := buildStore(t, g, 4, storage.HDD)
		res, err := New(ds, Config{Model: ModelHybrid}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		for _, it := range res.Iterations {
			out = append(out, it.Runtime)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iter %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestPredictorTracksActualCosts(t *testing.T) {
	// The §3.4 predictor must agree with the simulator it predicts:
	// starting from the same frontier, the predicted C_rop and C_cop
	// should be within 2x of the I/O time a forced iteration actually
	// charges (the paper's predictor only needs to rank the two models;
	// ours should also be roughly calibrated).
	g := graph.New(4000)
	for i := 0; i < 4000; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*17+1)%4000))
		g.AddEdge(graph.VertexID(i), graph.VertexID((i*5+11)%4000))
	}
	for _, model := range []Model{ModelROP, ModelCOP} {
		ds := buildStore(t, g, 4, storage.HDD)
		e := New(ds, Config{Model: model, MaxIters: 1})

		// Recreate the initial frontier exactly as Run will see it.
		frontier := bitset.NewFrontier(4000)
		for v := 0; v < 60; v++ {
			frontier.Add(v * 61 % 4000)
		}
		crop, ccop := e.PredictCosts(frontier)

		prog := sparseStart{members: frontier.Members()}
		res, err := e.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		actual := res.Iterations[0].IOTime
		predicted := crop
		if model == ModelCOP {
			predicted = ccop
		}
		lo, hi := actual/2, actual*2
		if predicted < lo || predicted > hi {
			t.Fatalf("%v: predicted %v, actual %v (want within 2x)", model, predicted, actual)
		}
	}
}

// TestPredictedCOPBytesMatchCharged: the predictor prices a COP iteration
// from the sizes the meta blob recorded, the device charges what the
// iteration actually reads — the two must be the same bytes, whatever the
// format and however many blocks are sparse or empty. The one difference is
// the checksum frame: every blob read carries a fixed header the predictor
// does not price, read here off one blob, one blob a block. Each
// store runs two iterations without a cache, and two through a cache that
// holds every block: its second iteration hits every block, is priced and
// charged no byte, and — the cache holding blocks as stored — counts the
// compressed bytes the first did.
func TestPredictedCOPBytesMatchCharged(t *testing.T) {
	g := randomGraph(600, 2500, 11)
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		for _, p := range []int{2, 8} {
			ds := buildUnweighted(t, g, p, format)
			stored, err := ds.Store().Size("ib/0.0")
			if err != nil {
				t.Fatal(err)
			}
			blobs := int64(p * p)
			frames := blobs * (stored - ds.InBlockBytes[0][0])
			for _, budget := range []int64{0, 64 << 20} {
				var e *Engine
				var seq []int64 // what the predictor prices each iteration at, before it runs
				price := func(IterStats) { seq = append(seq, e.copScanBytes()) }
				e = New(ds, Config{Model: ModelCOP, MaxIters: 2, CacheBudgetBytes: budget, OnIteration: price})
				price(IterStats{})
				res, err := e.Run(testLabel{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Iterations) != 2 {
					t.Fatalf("%v P=%d cache %d: %d iterations, want 2", format, p, budget, len(res.Iterations))
				}
				first := res.Iterations[0]
				for it, st := range res.Iterations {
					hits := budget > 0 && it == 1
					io, f := st.IO, frames
					if hits {
						f = 0
					}
					if charged := io.SeqReadBytes + io.SeqWriteBytes - f; seq[it] != charged || io.RandReadBytes != 0 {
						t.Fatalf("%v P=%d cache %d iteration %d: predictor prices %d bytes, device charged %d sequential (+ %d of frames) and %d random",
							format, p, budget, it, seq[it], charged, f, io.RandReadBytes)
					}
					if hits && (st.CacheMisses != 0 || st.CacheHits == 0 || st.DecodedBytes != first.DecodedBytes || st.CompressedBytes != first.CompressedBytes) {
						t.Fatalf("%v P=%d: cached iteration %d hits, %d misses, decodes %d of %d bytes; the first decoded %d of %d",
							format, p, st.CacheHits, st.CacheMisses, st.DecodedBytes, st.CompressedBytes, first.DecodedBytes, first.CompressedBytes)
					}
				}
				if (first.DecodedBytes > 0) != (format == blockstore.FormatMixed) {
					t.Fatalf("%v P=%d: the first iteration decoded %d bytes", format, p, first.DecodedBytes)
				}
			}
		}
	}
}

// indexReads counts the out-index reads made through it: whole blobs, and
// the bytes of range reads.
type indexReads struct {
	storage.Store
	whole, rangeBytes atomic.Int64
}

func (s *indexReads) ReadAllInto(name string, buf []byte) ([]byte, error) {
	if strings.HasPrefix(name, "oi/") {
		s.whole.Add(1)
	}
	return s.Store.ReadAllInto(name, buf)
}

func (s *indexReads) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	if strings.HasPrefix(name, "oi/") {
		s.rangeBytes.Add(n)
	}
	return s.Store.ReadAtInto(name, off, n, buf)
}

// TestPredictedROPIndexBytesMatchCharged is the ROP twin of
// TestPredictedCOPBytesMatchCharged: for a sync, uncached ROP iteration over
// either format, every live out-index is read as a page span and none whole,
// so the device is charged nothing sequential; the out-index page spans the
// predictor prices as random reads are the bytes read, with no frame term,
// since a page read skips the header; and the compute model counts the same
// live blocks. On the first graph the frontier leaves some nonempty blocks
// of its rows dead, which are priced at nothing and read not at all; on the
// second an interval spans three index pages, and the frontier's extents
// only part of them.
func TestPredictedROPIndexBytesMatchCharged(t *testing.T) {
	for _, c := range []struct {
		g       *graph.Graph
		ps      []int
		members []int
	}{
		{randomGraph(600, 2500, 11), []int{2, 8}, []int{7, 8, 300, 599}},
		// 8000-vertex intervals: 125 groups, 8532-byte indices, pages
		// [0, 4096), [4096, 8192) and [8192, 8532). 7 and 8 need page 0
		// of row 0's, 15999 page 2 of row 1's.
		{randomGraph(16000, 60000, 11), []int{2}, []int{7, 8, 15999}},
	} {
		n := c.g.NumVertices
		for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
			for _, p := range c.ps {
				what := fmt.Sprintf("%d vertices, %v, P=%d", n, format, p)
				mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
				if _, err := blockstore.BuildOpts(mem, c.g, blockstore.Options{P: p, Format: format}); err != nil {
					t.Fatal(err)
				}
				rec := &indexReads{Store: mem}
				ds, err := blockstore.Open(rec)
				if err != nil {
					t.Fatal(err)
				}
				e := New(ds, Config{Model: ModelROP, MaxIters: 1})
				f := frontierWith(n, c.members...)
				_, pricedPages, _ := e.ropCost(f)
				live := int64(0)
				for i := 0; i < p; i++ {
					for j := 0; j < p; j++ {
						if ds.Extent(i, j, f).Live() {
							live++
						}
					}
				}
				if _, blocks := e.iterationWork(ModelROP, e.liveFor(f), 0); blocks != live {
					t.Fatalf("%s: compute model counts %d blocks, %d are live", what, blocks, live)
				}
				nonempty := int64(0)
				for i := 0; i < p; i++ {
					if lo, hi := ds.Layout.Bounds(i); f.CountIn(lo, hi) > 0 {
						for j := 0; j < p; j++ {
							if ds.BlockEdgeCount[i][j] != 0 {
								nonempty++
							}
						}
					}
				}
				if p == 8 && live >= nonempty {
					t.Fatalf("%s: all %d nonempty blocks of the active rows are live; nothing is skipped", what, nonempty)
				}
				if live == 0 || pricedPages == 0 {
					t.Fatalf("%s: %d live out-indices, %d bytes of pages priced", what, live, pricedPages)
				}
				if idx := ds.OutIndexBytes(0, 0); n > 600 && pricedPages >= live*idx {
					t.Fatalf("%s: page spans of %d bytes for %d live %d-byte indices; none is a strict part", what, pricedPages, live, idx)
				}
				res, err := e.Run(sparseStart{members: c.members})
				if err != nil {
					t.Fatal(err)
				}
				if rec.rangeBytes.Load() != pricedPages {
					t.Fatalf("%s: predictor prices %d bytes of out-index pages, %d read", what, pricedPages, rec.rangeBytes.Load())
				}
				if rec.whole.Load() != 0 {
					t.Fatalf("%s: %d whole out-index reads, want every live one read as a page span", what, rec.whole.Load())
				}
				if io := res.Iterations[0].IO; io.SeqReadBytes+io.SeqWriteBytes != 0 {
					t.Fatalf("%s: device charged %d sequential bytes; the predictor prices none", what, io.SeqReadBytes+io.SeqWriteBytes)
				}
			}
		}
	}
}

// sparseStart is a monotone program whose initial frontier is a fixed
// member list, used to align predictor probes with real iterations.
type sparseStart struct {
	members []int
}

func (sparseStart) Name() string         { return "sparseStart" }
func (sparseStart) Kind() Kind           { return Monotone }
func (sparseStart) NeedsSymmetric() bool { return false }
func (p sparseStart) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = math.Inf(1)
	}
	f := bitset.NewFrontier(ctx.NumVertices)
	for _, m := range p.members {
		vals[m] = 0
		f.Add(m)
	}
	return vals, f
}
func (sparseStart) Message(_ graph.VertexID, srcVal float64, _ float32) float64 { return srcVal + 1 }
func (sparseStart) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}
func (sparseStart) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

func TestRunContextCancellation(t *testing.T) {
	g := pathGraph(100)
	ds := buildStore(t, g, 2, storage.HDD)
	ctx, cancel := context.WithCancel(context.Background())
	e := New(ds, Config{Model: ModelCOP, CheckpointEvery: 1, OnIteration: func(st IterStats) {
		if st.Iter == 4 {
			cancel()
		}
	}})
	_, err := e.RunContext(ctx, testBFS{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The checkpoint makes the cancelled run resumable to the same answer.
	res, err := New(ds, Config{Model: ModelCOP, Resume: true}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resume after cancellation did not converge")
	}
	for v := 0; v < 100; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %v after cancel+resume", v, res.Values[v])
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	g := pathGraph(10)
	ds := buildStore(t, g, 2, storage.HDD)
	var seen []int
	e := New(ds, Config{Model: ModelROP, OnIteration: func(st IterStats) {
		seen = append(seen, st.Iter)
	}})
	res, err := e.Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.NumIterations() {
		t.Fatalf("callback fired %d times for %d iterations", len(seen), res.NumIterations())
	}
	for i, it := range seen {
		if it != i {
			t.Fatalf("callback order: %v", seen)
		}
	}
}

func TestConcurrentEnginesShareOneStore(t *testing.T) {
	// Two independent queries over the same immutable store must both be
	// correct — the loaders are concurrency-safe and engines keep private
	// state (the paper's successor works, e.g. CGraph, schedule exactly
	// such concurrent jobs).
	g := pathGraph(400)
	ds := buildStore(t, g, 4, storage.HDD)
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e := New(ds, Config{Model: ModelHybrid, Threads: 2})
			results[k], errs[k] = e.Run(testBFS{})
		}(k)
	}
	wg.Wait()
	for k := 0; k < 2; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		for v := 0; v < 400; v++ {
			if results[k].Values[v] != float64(v) {
				t.Fatalf("engine %d: dist[%d] = %v", k, v, results[k].Values[v])
			}
		}
	}
}

func TestSinglePartition(t *testing.T) {
	// P=1 degenerates to one block per direction; both models must work.
	g := pathGraph(30)
	for _, model := range []Model{ModelROP, ModelCOP, ModelHybrid} {
		ds := buildStore(t, g, 1, storage.HDD)
		res, err := New(ds, Config{Model: model}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 30; v++ {
			if res.Values[v] != float64(v) {
				t.Fatalf("%v P=1: dist[%d] = %v", model, v, res.Values[v])
			}
		}
	}
}
