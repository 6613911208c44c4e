package algos

import (
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/core"
)

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
// take the kernels. FuzzEngineConfig (internal/shard) hides each
// declaration to hold the kernels to the per-edge fallback.
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
