package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// declared wraps a test program with a reduce declaration, so the same
// Message/Combine run through the specialised kernels; the bare program
// (no Reducer) is the fallback it is compared against.
type declared struct {
	Program
	op ReduceOp
}

func (d declared) Reduce() ReduceOp { return d.op }

// testLabel is min-label propagation (WCC's shape): every vertex starts
// active with its own ID and pulls the smallest label upstream.
type testLabel struct{ testBFS }

func (testLabel) Name() string { return "testLabel" }
func (testLabel) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	vals := make([]float64, ctx.NumVertices)
	for i := range vals {
		vals[i] = float64(i)
	}
	return vals, bitset.FullFrontier(ctx.NumVertices)
}
func (testLabel) Message(_ graph.VertexID, srcVal float64, _ float32) float64 { return srcVal }

func buildUnweighted(t testing.TB, g *graph.Graph, p int, format blockstore.Format) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: p, Format: format})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	g.Dedup()
	return g
}

// shapedGraph is randomGraph with the two extreme in-block shapes forced
// in: every destination of interval 0 has an in-edge from interval 0 (a key
// for every destination), and in-block (1,1) holds the in-edges of one
// destination only.
func shapedGraph(n, m, p int, seed int64) *graph.Graph {
	size := (n + p - 1) / p
	g := graph.New(n)
	for _, e := range randomGraph(n, m, seed).Edges {
		if int(e.Src)/size != 1 || int(e.Dst)/size != 1 {
			g.AddEdge(e.Src, e.Dst)
		}
	}
	for v := 0; v < size; v++ {
		g.AddEdge(graph.VertexID((v+1)%size), graph.VertexID(v))
	}
	g.AddEdge(graph.VertexID(size), graph.VertexID(size+1))
	g.AddEdge(graph.VertexID(size+2), graph.VertexID(size+1))
	g.Dedup()
	return g
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// edgeCaseValues are the floats a reduction can get wrong: signed zeros,
// infinities, NaN, equal neighbours, and magnitudes whose sum rounds.
var edgeCaseValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 1 + 1e-16, 1e308, -1e308, 5e-324,
	math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 0.2, 0.3,
}

// TestKernelsMatchDeclaredCombine folds every ordered pair of edge-case
// values through each specialised COP kernel and through the ROP push, and
// demands the accumulator the reduction's written-out Combine produces —
// bit for bit, including which destinations a min activates. The COP kernels
// see it as the two extreme block shapes: a record for every destination of
// the interval, and a single record in the middle of it — over a bare
// table, and over one the pass filled for a one-source frontier. Over that
// table an inactive source's edges into every destination must change no
// accumulator's bits.
func TestKernelsMatchDeclaredCombine(t *testing.T) {
	// Source u carries message vals[u]; destination k starts from vals[k]
	// and has the single in-edge (pair index) → k.
	vals := edgeCaseValues
	n := len(vals)
	for _, op := range []ReduceOp{ReduceSum, ReduceMin} {
		for src, msg := range vals {
			m := make([]float64, n)
			m[src] = msg
			want := make([]float64, n)
			changed := make([]bool, n)
			for k, acc := range vals {
				want[k], changed[k] = op.Combine(acc, msg)
			}
			// The table as a sweep whose frontier is {src} fills it: msg for
			// src, the reduction's identity for every other source.
			active := bitset.NewFrontier(n)
			active.Add(src)
			fill := &copKernel{prog: declared{constMessage{msg}, op}, op: op, threads: 1, s: vals, m: make([]float64, n), active: active.Bitmap().Words()}
			fill.pass(0, n, nil, nil)

			// One CodecCOO record per listed destination, all naming from.
			run := func(name string, from int, dsts []int, table []float64) {
				var recs []byte
				wantD := append([]float64(nil), vals...)
				for _, k := range dsts {
					recs = binary.LittleEndian.AppendUint32(recs, uint32(k)<<16|uint32(from))
					if from == src {
						wantD[k] = want[k]
					}
				}
				d := append([]float64(nil), vals...)
				kernel := copSumCOO
				if op == ReduceMin {
					kernel = copMinCOO
				}
				if bad := kernel(table, d, recs, 0, math.MaxUint32); bad >= 0 {
					t.Fatalf("%v %s, %d records, msg %v: stopped at record %d", op, name, len(dsts), msg, bad)
				}
				if !sameBits(d, wantD) {
					t.Errorf("%v %s, %d records, msg %v: accumulators %v, want %v", op, name, len(dsts), msg, d, wantD)
				}
			}
			every := make([]int, n)
			for k := range every {
				every[k] = k
			}
			for _, dsts := range [][]int{every, {n / 2}} {
				run("all-active", src, dsts, m)
				run("probe", src, dsts, fill.m)
			}
			// An inactive source's identity, folded into every edge-case
			// accumulator, must leave each one's bits as they are.
			run("inactive source", (src+1)%n, every, fill.m)

			// ROP: one source pushing msg to every destination of an
			// interval starting at jlo, in records of either width.
			prog := declared{constMessage{msg}, op}
			const jlo = 5
			for _, step := range []int{2, 4} {
				d := append([]float64(nil), vals...)
				next := bitset.NewFrontier(jlo + n)
				all := make([]byte, step*n)
				for k := 0; k < n; k++ {
					all[step*k] = byte(k)
				}
				if r := ropPush(prog, op, 0, 0, all, step, false, d, jlo, next); r >= 0 {
					t.Fatalf("%v rop, %d-byte records, msg %v: stopped at in-range record %d", op, step, msg, r)
				}
				if !sameBits(d, want) {
					t.Errorf("%v rop, %d-byte records, msg %v: accumulators %v, want %v", op, step, msg, d, want)
				}
				for k := range changed {
					if next.Contains(jlo+k) != changed[k] {
						t.Errorf("%v rop, msg %v onto %v: activated=%v, Combine says changed=%v", op, msg, vals[k], next.Contains(jlo+k), changed[k])
					}
				}
			}
		}
	}
}

// TestROPPushStopsAtNeighbourOutOfRange is the push loop's own contract: a
// record whose local destination is not in the destination interval — far
// past it, or its size exactly — or falls below the record's before it ends
// the push at that record, in every arm and at either record width, having
// touched nothing at or past it.
func TestROPPushStopsAtNeighbourOutOfRange(t *testing.T) {
	const n = 8
	for _, idBytes := range []int{2, 4} {
		for _, weighted := range []bool{false, true} {
			step := idBytes
			if weighted {
				step += 4
			}
			for _, bad := range []struct {
				name   string
				local  byte // record 1's low byte
				topBit bool // record 1's highest destination bit
			}{{"top bit set", 1, true}, {"size of the interval", n, false}, {"falling", 0, false}} {
				sec := make([]byte, 3*step)
				sec[0], sec[2*step] = 1, 2 // records 0 and 2 name local destinations 1 and 2
				sec[step] = bad.local
				if bad.topBit {
					sec[step+idBytes-1] = 0x80
				}
				for _, op := range []ReduceOp{ReduceSum, ReduceMin, ReduceCustom} {
					if weighted && op != ReduceCustom {
						continue // reduceOf keeps weighted stores on the custom arm
					}
					d := make([]float64, n)
					for v := range d {
						d[v] = 100
					}
					if r := ropPush(declared{testLabel{}, op}, op, 0, 0, sec, step, weighted, d, 0, nil); r != 1 {
						t.Fatalf("%d-byte destinations, weighted=%v, %v, %s: the push stopped at record %d, want 1", idBytes, weighted, op, bad.name, r)
					}
					if d[2] != 100 {
						t.Fatalf("%d-byte destinations, weighted=%v, %v, %s: the push went on past the bad record", idBytes, weighted, op, bad.name)
					}
				}
			}
		}
	}
}

// constMessage sends the same value along every edge.
type constMessage struct{ msg float64 }

func (constMessage) Name() string                                       { return "const" }
func (constMessage) Kind() Kind                                         { return Monotone }
func (constMessage) NeedsSymmetric() bool                               { return false }
func (constMessage) Init(*Context) ([]float64, *bitset.Frontier)        { return nil, nil }
func (c constMessage) Message(graph.VertexID, float64, float32) float64 { return c.msg }
func (constMessage) Combine(acc, msg float64) (float64, bool)           { return acc, false }
func (constMessage) Apply(_ graph.VertexID, _, acc float64) (float64, bool) {
	return acc, false
}

// TestProbePathSkipsExactlyTheInactiveSource is the all-active boundary: a
// frontier one vertex short of full must keep its bitmap (the table fill and the
// Combine fallback read it), and must leave out exactly that vertex's
// edges — in a block with an entry per destination and in a block with one
// entry as in the ordinary ones between, stored raw and varint.
func TestProbePathSkipsExactlyTheInactiveSource(t *testing.T) {
	const n, p = 96, 4
	g := shapedGraph(n, 900, p, 3)
	skip := 41
	want := make([]float64, n) // in-edges from every source but skip
	for _, e := range g.Edges {
		if int(e.Src) != skip {
			want[e.Dst]++
		}
	}
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		ds := buildUnweighted(t, g, p, format)
		if format == blockstore.FormatMixed {
			wantCodecs(t, ds, blockstore.CodecVarint)
		}
		for _, prog := range []Program{testCount{}, declared{testCount{}, ReduceSum}} {
			e := New(ds, Config{Threads: 2})
			s := make([]float64, n)
			frontier := bitset.NewFrontier(n)
			for v := 0; v < n; v++ {
				if v != skip {
					frontier.Add(v)
				}
			}
			k := &e.cop
			k.begin(e, prog, s, frontier)
			if k.active == nil {
				t.Fatalf("%v: |V|-1 active vertices dropped the frontier's bitmap", format)
			}
			k.end()
			k.begin(e, prog, s, bitset.FullFrontier(n))
			if k.active != nil {
				t.Fatalf("%v: a full frontier kept a bitmap to test", format)
			}
			k.end()

			d := make([]float64, n)
			step := e.BeginIter(prog, 0, ModelCOP, frontier, bitset.NewFrontier(n))
			InitAccumulators(prog.Kind(), s, d)
			if err := step.Exec(s, d); err != nil {
				t.Fatal(err)
			}
			if _, err := step.End(); err != nil {
				t.Fatal(err)
			}
			if !sameBits(s, want) { // testCount applies acc as the new value
				t.Fatalf("%v %T: counts %v, want %v", format, prog, s, want)
			}
		}
	}
}

// TestMessageTableFollowsEagerSync runs min-label propagation down a path
// that crosses interval boundaries under forced COP. Each column's
// S_i ← D_i lets the next column pull the improved label within the same
// iteration; a message table left stale after a column would still converge,
// but later than the per-edge fallback does.
func TestMessageTableFollowsEagerSync(t *testing.T) {
	const n, p = 64, 8
	ds := buildUnweighted(t, pathGraph(n), p, blockstore.FormatRaw)
	for _, threads := range []int{1, 2, 8} {
		ref, err := New(ds, Config{Model: ModelCOP, Threads: threads}).Run(testLabel{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(ds, Config{Model: ModelCOP, Threads: threads}).Run(declared{testLabel{}, ReduceMin})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Converged || !got.Converged {
			t.Fatalf("threads=%d: converged fallback=%v kernels=%v", threads, ref.Converged, got.Converged)
		}
		if got.NumIterations() != ref.NumIterations() {
			t.Fatalf("threads=%d: kernels took %d iterations, fallback %d", threads, got.NumIterations(), ref.NumIterations())
		}
		if ref.NumIterations() >= n-1 {
			t.Fatalf("threads=%d: %d iterations — eager synchronisation is not shortening the path, the test checks nothing", threads, ref.NumIterations())
		}
		if !sameBits(got.Values, ref.Values) {
			t.Fatalf("threads=%d: values differ from the fallback", threads)
		}
		for it := range ref.Iterations {
			if got.Iterations[it].ActiveVertices != ref.Iterations[it].ActiveVertices {
				t.Fatalf("threads=%d iter %d: %d active, fallback %d", threads, it,
					got.Iterations[it].ActiveVertices, ref.Iterations[it].ActiveVertices)
			}
		}
	}
}

// TestSharedMessageTableAcrossOwners drives two owner-scoped engines over
// shared S/D arrays and one shared table, the way the shard coordinator
// does, and expects the single-engine result: each engine's sweep must see
// the labels the other's columns just synchronised.
func TestSharedMessageTableAcrossOwners(t *testing.T) {
	const n, p = 64, 8
	ds := buildUnweighted(t, pathGraph(n), p, blockstore.FormatRaw)
	prog := declared{testLabel{}, ReduceMin}
	ref, err := New(ds, Config{Model: ModelCOP, Threads: 1}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	tbl := new(MessageTable)
	var engines []*Engine
	for k := 0; k < 2; k++ {
		owner, err := NewIntervalRange(k*p/2, (k+1)*p/2, p)
		if err != nil {
			t.Fatal(err)
		}
		e := New(ds, Config{Threads: 1, Owner: owner})
		e.ShareMessageTable(tbl)
		engines = append(engines, e)
	}
	s, frontier := prog.Init(engines[0].Context())
	d := make([]float64, n)
	iters := 0
	for ; !frontier.Empty(); iters++ {
		next := bitset.NewFrontier(n)
		InitAccumulators(prog.Kind(), s, d)
		for _, e := range engines {
			step := e.BeginIter(prog, iters, ModelCOP, frontier, next)
			if err := step.Exec(s, d); err != nil {
				t.Fatal(err)
			}
			if _, err := step.End(); err != nil {
				t.Fatal(err)
			}
		}
		frontier = next
	}
	if iters != ref.NumIterations() || !sameBits(s, ref.Values) {
		t.Fatalf("two owners over one table: %d iterations, single engine %d; values equal: %v",
			iters, ref.NumIterations(), sameBits(s, ref.Values))
	}
}

// TestCOPIterationAllocations guards the scan path's allocation count: one
// COP iteration over a MemStore (whose reads allocate nothing) may cost a
// handful of allocations per block — the worker spawned for it and its
// prefetch hand-off — not the two dozen it once did.
func TestCOPIterationAllocations(t *testing.T) {
	const n, p = 4096, 8
	ds := buildUnweighted(t, shapedGraph(n, 40000, p, 5), p, blockstore.FormatRaw)
	prog := declared{testCount{}, ReduceSum}
	e := New(ds, Config{Threads: 2, PrefetchDepth: 2})
	s, frontier := prog.Init(e.Context())
	d := make([]float64, n)
	next := bitset.NewFrontier(n)
	iter := 0
	allocs := testing.AllocsPerRun(10, func() {
		step := e.BeginIter(prog, iter, ModelCOP, frontier, next)
		InitAccumulators(prog.Kind(), s, d)
		if err := step.Exec(s, d); err != nil {
			t.Fatal(err)
		}
		step.FinalizeOwned(s, d)
		if _, err := step.End(); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	blocks := float64(p * p)
	if limit := 4*blocks + 100; allocs > limit {
		t.Fatalf("one COP iteration over %d blocks allocated %.0f times, limit %.0f", p*p, allocs, limit)
	}
	t.Logf("%.0f allocations for %d blocks", allocs, p*p)
}
