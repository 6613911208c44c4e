package core

import (
	"math"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// compressTestGraph is a deterministic pseudo-random graph with skewed
// degrees whose P = 4 mixed builds hold in-blocks under both codecs
// (buildFormat checks): the scatter and the hub's long gap-1 run are varint
// blocks, and the last 200 vertices are isolated, leaving the empty blocks
// CodecCOO.
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
	return buildWeighted(t, g, f, prof, true)
}

// buildWeighted is buildFormat with the record layout chosen.
func buildWeighted(t *testing.T, g *graph.Graph, f blockstore.Format, prof storage.Profile, weighted bool) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(prof)), g, blockstore.Options{P: 4, Format: f, Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	if f == blockstore.FormatMixed {
		wantCodecs(t, ds, blockstore.CodecCOO, blockstore.CodecVarint)
	}
	return ds
}

// wantCodecs fails the test unless ds stores at least one in-block under
// each of the given codecs (out-blocks are raw in every format). The
// differential suites compare a mixed store with a raw one; which decoders
// that covers would otherwise depend silently on what the generator happened
// to produce.
func wantCodecs(t testing.TB, ds *blockstore.DualStore, codecs ...blockstore.Codec) {
	t.Helper()
	in := map[blockstore.Codec]int{}
	for i := 0; i < ds.Layout.P; i++ {
		for j := 0; j < ds.Layout.P; j++ {
			in[ds.InCodec(i, j)]++
		}
	}
	for _, c := range codecs {
		if in[c] == 0 {
			t.Fatalf("store has no %v in-block (%v): this suite would not cover that codec", c, in)
		}
	}
}

// testSSSP is testBFS over edge weights: the weighted program whose pushes
// read every record's weight.
type testSSSP struct{ testBFS }

func (testSSSP) Name() string { return "testSSSP" }
func (testSSSP) Message(_ graph.VertexID, srcVal float64, w float32) float64 {
	return srcVal + float64(w)
}

// TestEngineMixedStoreDecodesAndReadsLess checks what a mixed store changes
// and what it does not. COP streams the column view, which a mixed store
// compresses: it moves fewer stored bytes than raw, and the iteration stats
// count its compressed in-blocks (decoded/compressed bytes) while raw runs
// count none. ROP reads the row view, which
// every format stores raw: over a mixed store it reads exactly the bytes and
// ops it reads over a raw one, decodes nothing and computes the same bits —
// for an unweighted and a weighted program alike.
func TestEngineMixedStoreDecodesAndReadsLess(t *testing.T) {
	g := compressTestGraph()
	raw, err := New(buildFormat(t, g, blockstore.FormatRaw, storage.HDD), Config{Model: ModelCOP, MaxIters: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := New(buildFormat(t, g, blockstore.FormatMixed, storage.HDD), Config{Model: ModelCOP, MaxIters: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.TotalIO().ReadBytes() >= raw.TotalIO().ReadBytes() {
		t.Fatalf("COP: mixed read %d not below raw %d", mixed.TotalIO().ReadBytes(), raw.TotalIO().ReadBytes())
	}
	if mixed.TotalDecodedBytes() <= 0 || mixed.TotalCompressedBytes() <= 0 {
		t.Fatalf("COP: mixed run metered no decode (%d decoded, %d compressed)", mixed.TotalDecodedBytes(), mixed.TotalCompressedBytes())
	}
	if raw.TotalDecodedBytes() != 0 || raw.TotalCompressedBytes() != 0 {
		t.Fatalf("COP: raw run metered decode work (%d bytes)", raw.TotalDecodedBytes())
	}

	for _, c := range []struct {
		prog     Program
		weighted bool
	}{{testBFS{}, false}, {testSSSP{}, true}} {
		run := func(f blockstore.Format) *Result {
			res, err := New(buildWeighted(t, g, f, storage.HDD, c.weighted), Config{Model: ModelROP}).Run(c.prog)
			if err != nil {
				t.Fatalf("ROP %s over %v: %v", c.prog.Name(), f, err)
			}
			return res
		}
		raw, mixed := run(blockstore.FormatRaw), run(blockstore.FormatMixed)
		if got, want := mixed.TotalIO(), raw.TotalIO(); got != want || want.RandAccesses == 0 {
			t.Fatalf("ROP %s: mixed store: %v; raw store: %v", c.prog.Name(), got, want)
		}
		if mixed.TotalDecodedBytes() != 0 || mixed.TotalCompressedBytes() != 0 {
			t.Fatalf("ROP %s: mixed run decoded %d bytes from %d", c.prog.Name(), mixed.TotalDecodedBytes(), mixed.TotalCompressedBytes())
		}
		for v := range raw.Values {
			if math.Float64bits(mixed.Values[v]) != math.Float64bits(raw.Values[v]) {
				t.Fatalf("ROP %s: value[%d] = %v over mixed, %v over raw", c.prog.Name(), v, mixed.Values[v], raw.Values[v])
			}
		}
	}
}
