package algos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// undeclared and undeclaredPriority embed only the engine-facing interface,
// so the wrapped program's Reduce method is out of the method set and the
// engine must take the per-edge Message/Combine fallback. There is no
// configuration switch for that: hiding the declaration is the only way in.
type undeclared struct{ core.Program }
type undeclaredPriority struct{ core.PriorityProgram }

func hideReduce(p core.Program) core.Program {
	if pp, ok := p.(core.PriorityProgram); ok {
		return undeclaredPriority{pp}
	}
	return undeclared{p}
}

// kernelPrograms builds a fresh instance of every program in the package
// (several carry per-run state).
func kernelPrograms(n int) map[string]func() core.Program {
	x := make([]float64, n)
	for v := range x {
		x[v] = 1 / float64(v+1)
	}
	return map[string]func() core.Program{
		"BFS":            func() core.Program { return BFS{Source: 0} },
		"SSSP":           func() core.Program { return SSSP{Source: 0} },
		"WCC":            func() core.Program { return WCC{} },
		"PageRank":       func() core.Program { return &PageRank{} },
		"PageRank-Delta": func() core.Program { return &PageRankDelta{} },
		"KCore":          func() core.Program { return KCore{K: 3} },
		"PPR":            func() core.Program { return &PPR{Source: 0} },
		"SpMV":           func() core.Program { return SpMV{X: x} },
		"SSSP-Delta":     func() core.Program { return DeltaSSSP{Source: 0, Delta: 2} },
		"Coreness":       func() core.Program { return &Coreness{} },
	}
}

// TestEveryProgramDeclaresItsReduction pins the opt-in: all ten programs
// take the kernels, and the test wrappers really do hide it.
func TestEveryProgramDeclaresItsReduction(t *testing.T) {
	progs := kernelPrograms(4)
	if len(progs) != 10 {
		t.Fatalf("%d programs listed, the package has 10", len(progs))
	}
	for name, mk := range progs {
		r, ok := mk().(core.Reducer)
		if !ok || (r.Reduce() != core.ReduceSum && r.Reduce() != core.ReduceMin) {
			t.Errorf("%s declares no reduction", name)
		}
		if _, ok := hideReduce(mk()).(core.Reducer); ok {
			t.Errorf("%s: the wrapper still exposes Reduce", name)
		}
		_, wasPriority := mk().(core.PriorityProgram)
		if _, is := hideReduce(mk()).(core.PriorityProgram); is != wasPriority {
			t.Errorf("%s: the wrapper changed whether the program is bucketed", name)
		}
	}
}

// TestDeclaredReduceMatchesCombine checks each program's declaration against
// its own Combine, on the edge cases where a sum or a min can differ in the
// last bit or in the "changed" flag (signed zeros, infinities, NaN, equal
// values) and on random pairs.
func TestDeclaredReduceMatchesCombine(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 1 + 1e-16, 0.1, 0.2, 1e308, -1e308, 5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e3)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, mk := range kernelPrograms(4) {
		prog := mk()
		op := prog.(core.Reducer).Reduce()
		for _, acc := range vals {
			for _, msg := range vals {
				got, gotChanged := prog.Combine(acc, msg)
				want, wantChanged := op.Combine(acc, msg)
				if !same(got, want) || gotChanged != wantChanged {
					t.Fatalf("%s declares %v but Combine(%v, %v) = (%v, %v), the reduction gives (%v, %v)",
						name, op, acc, msg, got, gotChanged, want, wantChanged)
				}
			}
		}
	}
}

// TestKernelsBitIdenticalToFallback is the differential suite: every
// program × store format × weighted/unweighted × update model × shard count,
// once as declared (specialised kernels wherever the store allows) and once
// with the declaration hidden (per-edge interface calls). Final values, every
// iteration's model, frontier size and I/O must be equal to the bit.
func TestKernelsBitIdenticalToFallback(t *testing.T) {
	const n, p = 240, 4
	rng := rand.New(rand.NewSource(42))
	g := gen.Web(n, 1600, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	// Shape the graph so its mixed stores hold both codecs (checked where
	// they are built): varint is the smallest wherever a block has edges, and
	// no edge joins intervals 0 and 3, leaving those blocks empty — the one
	// case CodecNone wins.
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		is, id := int(e.Src)/(n/p), int(e.Dst)/(n/p)
		if (is == 0 && id == p-1) || (is == p-1 && id == 0) {
			continue
		}
		kept = append(kept, e)
	}
	g.Edges = kept
	sym := g.Symmetrize()

	type storeKey struct {
		format    blockstore.Format
		weighted  bool
		symmetric bool
	}
	stores := map[storeKey]*blockstore.DualStore{}
	store := func(k storeKey) *blockstore.DualStore {
		if ds, ok := stores[k]; ok {
			return ds
		}
		in := g
		if k.symmetric {
			in = sym
		}
		ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), in,
			blockstore.Options{P: p, Format: k.format, Weighted: k.weighted})
		if err != nil {
			t.Fatal(err)
		}
		if k.format == blockstore.FormatMixed {
			want := []blockstore.Codec{blockstore.CodecNone, blockstore.CodecVarint}
			in := map[blockstore.Codec]int{}
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					in[ds.InCodec(i, j)]++
				}
			}
			for _, c := range want {
				if in[c] == 0 {
					t.Fatalf("mixed store (weighted=%v, symmetric=%v) has no %v in-block (%v): the suite would not cover that codec", k.weighted, k.symmetric, c, in)
				}
			}
		}
		stores[k] = ds
		return ds
	}
	runOn := func(ds *blockstore.DualStore, prog core.Program, model core.Model, shards int) *core.Result {
		cfg := core.Config{Model: model, Threads: 2, MaxIters: 12, PrefetchDepth: 2}
		var res *core.Result
		var err error
		if shards > 1 {
			var co *shard.Coordinator
			if co, err = shard.New(ds, shard.Config{Config: cfg, Shards: shards}); err == nil {
				res, err = co.Run(prog)
			}
		} else {
			res, err = core.New(ds, cfg).Run(prog)
		}
		if err != nil {
			t.Fatalf("%s %v K=%d: %v", prog.Name(), model, shards, err)
		}
		return res
	}

	formats := map[string]blockstore.Format{"raw": blockstore.FormatRaw, "mixed": blockstore.FormatMixed}
	for name, mk := range kernelPrograms(n) {
		for fname, format := range formats {
			for _, weighted := range []bool{false, true} {
				ds := store(storeKey{format, weighted, mk().NeedsSymmetric()})
				for _, model := range []core.Model{core.ModelCOP, core.ModelROP, core.ModelHybrid} {
					for _, shards := range []int{1, 2} {
						what := fmt.Sprintf("%s/%s/weighted=%v/%v/K=%d", name, fname, weighted, model, shards)
						got := runOn(ds, mk(), model, shards)
						want := runOn(ds, hideReduce(mk()), model, shards)
						if len(got.Iterations) != len(want.Iterations) || got.Converged != want.Converged {
							t.Fatalf("%s: %d iterations (converged %v), fallback %d (%v)", what,
								len(got.Iterations), got.Converged, len(want.Iterations), want.Converged)
						}
						for v := range want.Values {
							if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
								t.Fatalf("%s: value[%d] = %v, fallback %v", what, v, got.Values[v], want.Values[v])
							}
						}
						for it := range want.Iterations {
							gi, wi := got.Iterations[it], want.Iterations[it]
							if gi.Model != wi.Model || gi.ActiveVertices != wi.ActiveVertices || gi.IO != wi.IO {
								t.Fatalf("%s iter %d: model %v, %d active, IO %+v; fallback %v, %d, %+v", what, it,
									gi.Model, gi.ActiveVertices, gi.IO, wi.Model, wi.ActiveVertices, wi.IO)
							}
						}
					}
				}
			}
		}
	}
}
