package core

import (
	"errors"
	"strings"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// compressTestGraph is a deterministic pseudo-random graph with skewed
// degrees whose P = 4 weighted mixed build holds both codecs (buildFormat
// checks): the scatter and the hub's long gap-1 run are varint blocks, and
// the last 200 vertices are isolated, leaving the empty blocks CodecNone.
func compressTestGraph() *graph.Graph {
	g := graph.New(800)
	for i := 0; i < 600; i++ {
		for _, dst := range []int{(i*13 + 7) % 600, (i*29 + 3) % 600} {
			g.AddEdge(graph.VertexID(i), graph.VertexID(dst))
		}
	}
	for i := 200; i < 400; i++ {
		g.AddEdge(0, graph.VertexID(i)) // hub: long sorted run, gap-1 deltas
	}
	return g
}

func buildFormat(t *testing.T, g *graph.Graph, f blockstore.Format, prof storage.Profile) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildWithFormat(storage.NewMemStore(storage.NewDevice(prof)), g, 4, f)
	if err != nil {
		t.Fatal(err)
	}
	if f == blockstore.FormatMixed {
		wantCodecs(t, ds, blockstore.CodecNone, blockstore.CodecVarint)
	}
	return ds
}

// wantCodecs fails the test unless ds stores at least one in-block and one
// out-block under each of the given codecs. The differential suites compare
// a mixed store with a raw one; which decoders that covers would otherwise
// depend silently on what the generator happened to produce.
func wantCodecs(t testing.TB, ds *blockstore.DualStore, codecs ...blockstore.Codec) {
	t.Helper()
	in, out := map[blockstore.Codec]int{}, map[blockstore.Codec]int{}
	for i := 0; i < ds.Layout.P; i++ {
		for j := 0; j < ds.Layout.P; j++ {
			in[ds.InCodec(i, j)]++
			out[ds.OutCodec(i, j)]++
		}
	}
	for _, c := range codecs {
		if in[c] == 0 || out[c] == 0 {
			t.Fatalf("store has no %v block (in-blocks %v, out-blocks %v): this suite would not cover that codec", c, in, out)
		}
	}
}

// TestEngineCrossFormatBitIdentical pins the compatibility contract: the
// same program over raw and mixed builds of one graph produces
// bit-identical values under every update model, for both a monotone and
// an additive program.
func TestEngineCrossFormatBitIdentical(t *testing.T) {
	g := compressTestGraph()
	formats := []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed}
	progs := []struct {
		name string
		prog Program
		max  int
	}{
		{"monotone", testBFS{}, 0},
		{"additive", testCount{}, 2},
	}
	for _, model := range []Model{ModelROP, ModelCOP, ModelHybrid} {
		for _, p := range progs {
			var ref []float64
			for _, f := range formats {
				ds := buildFormat(t, g, f, storage.HDD)
				res, err := New(ds, Config{Model: model, MaxIters: p.max, Threads: 2}).Run(p.prog)
				if err != nil {
					t.Fatalf("%v/%s/%v: %v", model, p.name, f, err)
				}
				if ref == nil {
					ref = res.Values
					continue
				}
				for v := range ref {
					if res.Values[v] != ref[v] {
						t.Fatalf("%v/%s/%v: value[%d] = %v, raw oracle %v", model, p.name, f, v, res.Values[v], ref[v])
					}
				}
			}
		}
	}
}

// TestEngineMixedStoreDecodesAndReadsLess checks a mixed store actually
// moves fewer stored bytes than raw, and that the iteration stats surface
// the decode work (decoded/compressed bytes and a positive modeled decode
// time) while raw runs report none.
func TestEngineMixedStoreDecodesAndReadsLess(t *testing.T) {
	g := compressTestGraph()
	for _, model := range []Model{ModelROP, ModelCOP} {
		raw, err := New(buildFormat(t, g, blockstore.FormatRaw, storage.HDD), Config{Model: model, MaxIters: 2}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := New(buildFormat(t, g, blockstore.FormatMixed, storage.HDD), Config{Model: model, MaxIters: 2}).Run(testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		if mixed.TotalIO().ReadBytes() >= raw.TotalIO().ReadBytes() {
			t.Fatalf("%v: mixed read %d not below raw %d", model, mixed.TotalIO().ReadBytes(), raw.TotalIO().ReadBytes())
		}
		if mixed.TotalDecodedBytes() <= 0 || mixed.TotalCompressedBytes() <= 0 {
			t.Fatalf("%v: mixed run metered no decode (%d decoded, %d compressed)", model, mixed.TotalDecodedBytes(), mixed.TotalCompressedBytes())
		}
		if mixed.TotalDecodeModeled() <= 0 {
			t.Fatalf("%v: mixed run has no modeled decode time", model)
		}
		if raw.TotalDecodedBytes() != 0 || raw.TotalDecodeModeled() != 0 {
			t.Fatalf("%v: raw run metered decode work (%d bytes)", model, raw.TotalDecodedBytes())
		}
	}
}

// TestSemiExternalPinsOutIndices pins the -sem contract on the ROP path:
// out-indices load once at pin time, so per-iteration reads shrink and
// values stay bit-identical — on raw and on mixed stores (compression and
// semi-external compose).
func TestSemiExternalPinsOutIndices(t *testing.T) {
	g := compressTestGraph()
	for _, f := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		run := func(sem bool) *Result {
			ds := buildFormat(t, g, f, storage.HDD)
			res, err := New(ds, Config{Model: ModelROP, MaxIters: 4, SemiExternal: sem}).Run(testBFS{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		full, semi := run(false), run(true)
		for v := range full.Values {
			if full.Values[v] != semi.Values[v] {
				t.Fatalf("%v: semi-external changed value[%d]", f, v)
			}
		}
		// Per-iteration reads must shrink: the same ROP iterations without
		// the out-index (or vertex) traffic. Pin-time loads are charged to
		// the device before iteration 0, not to any iteration.
		fullIter, semiIter := full.TotalIO().ReadBytes(), semi.TotalIO().ReadBytes()
		if semiIter >= fullIter {
			t.Fatalf("%v: semi-external per-iteration reads %d not below full %d", f, semiIter, fullIter)
		}
	}
}

// TestSemiExternalBudgetFailFast checks sizing is checked up front with an
// actionable error, and that a budget of exactly the resident footprint is
// accepted.
func TestSemiExternalBudgetFailFast(t *testing.T) {
	g := compressTestGraph()
	ds := buildFormat(t, g, blockstore.FormatMixed, storage.HDD)
	e := New(ds, Config{Model: ModelROP, MaxIters: 1, SemiExternal: true, SemBudgetBytes: 1})
	_, err := e.Run(testBFS{})
	if err == nil {
		t.Fatal("1-byte budget accepted")
	}
	if !errors.Is(err, ErrSemBudget) {
		t.Fatalf("budget error not classified as ErrSemBudget: %v", err)
	}
	//lint:ignore huslint/errclass asserting the rendered message stays actionable; classification above uses ErrSemBudget
	if !strings.Contains(err.Error(), "raise -sem-budget-mb") {
		t.Fatalf("budget error not actionable: %v", err)
	}

	vb, ib := e.SemResidentBytes()
	if vb <= 0 || ib <= 0 {
		t.Fatalf("SemResidentBytes = (%d, %d), want both positive", vb, ib)
	}
	e2 := New(buildFormat(t, g, blockstore.FormatMixed, storage.HDD), Config{Model: ModelROP, MaxIters: 1, SemiExternal: true, SemBudgetBytes: vb + ib})
	if _, err := e2.Run(testBFS{}); err != nil {
		t.Fatalf("exact-footprint budget rejected: %v", err)
	}
}

// TestSemiExternalPinIdempotent checks pinning survives engine reuse (the
// kill-and-resume path re-runs RunContext on a pinned engine): the second
// pin reads nothing.
func TestSemiExternalPinIdempotent(t *testing.T) {
	g := compressTestGraph()
	ds := buildFormat(t, g, blockstore.FormatMixed, storage.HDD)
	e := New(ds, Config{Model: ModelROP, MaxIters: 1, SemiExternal: true})
	if err := e.pinSemResident(); err != nil {
		t.Fatal(err)
	}
	before := ds.Device().Stats().ReadBytes()
	if err := e.pinSemResident(); err != nil {
		t.Fatal(err)
	}
	if read := ds.Device().Stats().ReadBytes() - before; read != 0 {
		t.Fatalf("second pin re-read %d bytes", read)
	}
	if e.semIdx == nil {
		t.Fatal("pin left no resident indices")
	}
}
