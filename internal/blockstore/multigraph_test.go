package blockstore_test

import (
	"bytes"
	"math"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// TestMixedMultigraphMatchesRaw: a repeated (source, destination) pair is a
// zero gap in a varint section, so a mixed store of a multigraph builds —
// resident and streamed — and BFS and PageRank over it give the raw store's
// values bit for bit under every model.
func TestMixedMultigraphMatchesRaw(t *testing.T) {
	const p = 4
	g := blockstore.MultigraphForTest(32)
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	build := func(format blockstore.Format, streamed bool) *blockstore.DualStore {
		t.Helper()
		st := storage.NewMemStore(storage.NewDevice(storage.SSD))
		opts := blockstore.Options{P: p, Format: format, Weighted: true}
		var ds *blockstore.DualStore
		var err error
		if streamed {
			ds, err = blockstore.BuildStreamingOpts(st, bytes.NewReader(bin.Bytes()), opts, 100)
		} else {
			ds, err = blockstore.BuildOpts(st, g, opts)
		}
		if err != nil {
			t.Fatalf("%v streamed=%v: %v", format, streamed, err)
		}
		return ds
	}
	raw := build(blockstore.FormatRaw, false)
	varint := 0
	for _, streamed := range []bool{false, true} {
		mixed := build(blockstore.FormatMixed, streamed)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if mixed.InCodec(i, j) == blockstore.CodecVarint {
					varint++
				}
			}
		}
		for _, model := range []core.Model{core.ModelHybrid, core.ModelCOP, core.ModelROP} {
			for _, prog := range []func() core.Program{
				func() core.Program { return algos.BFS{Source: g.Edges[0].Src} },
				func() core.Program { return &algos.PageRank{} },
			} {
				cfg := core.Config{Model: model, MaxIters: 20}
				want, err := core.New(raw, cfg).Run(prog())
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.New(mixed, cfg).Run(prog())
				if err != nil {
					t.Fatalf("mixed streamed=%v %v %s: %v", streamed, model, prog().Name(), err)
				}
				for v := range want.Values {
					if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
						t.Fatalf("mixed streamed=%v %v %s: vertex %d = %v, raw store gives %v", streamed, model, prog().Name(), v, got.Values[v], want.Values[v])
					}
				}
			}
		}
	}
	if varint == 0 {
		t.Fatal("no in-block of the mixed stores is stored varint: the zero gap went untested")
	}
}
