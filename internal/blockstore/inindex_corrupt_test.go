package blockstore_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// TestCorruptInIndexIsAnError: the COP kernels index the accumulators and
// the payload by in-index entries without a check of their own, so an index
// that lies — correctly framed, CRC intact — has to be stopped by the loader.
// Every rule of DESIGN.md §4m is broken here once. Only stores whose
// intervals are wider than a key addresses keep in-indices, in either
// format, so both stores' intervals here are one vertex wider than
// MaxCOOInterval, and a mixed store's in-blocks are a raw one's. The loader
// must answer storage.ErrCorrupt-class, and a COP run over the store must
// end in a *core.IterError carrying it — never a panic, never a value.
func TestCorruptInIndexIsAnError(t *testing.T) {
	// A chain 0→1→…→15 at P = 4 over intervals of MaxCOOInterval+1,
	// unweighted, with in-block (0,0) holding 15 records, one for each of
	// destinations 1..15: 4 bytes a record, so the honest entries are
	// (k, 4k).
	const p, name, step = 4, "ii/0.0", 4
	chain := func(hops int) *graph.Graph {
		const last = 16
		g := graph.New(p * (blockstore.MaxCOOInterval + 1))
		for v := 0; v+1 < last; v++ {
			for h := 1; h <= hops && v+h < last; h++ {
				g.AddEdge(graph.VertexID(v), graph.VertexID(v+h))
			}
		}
		return g
	}
	fixed := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	// honest returns the true entries with edit applied.
	honest := func(edit func(e []uint32) []uint32) []byte {
		var e []uint32
		for k := uint32(1); k <= 15; k++ {
			e = append(e, k, k*step)
		}
		return fixed(edit(e)...)
	}
	same := func(e []uint32) []uint32 { return e }
	lies := []struct {
		what  string
		index func(size uint32) []byte // size: Size(j)
	}{
		{"odd number of words", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { return append(e, 16) })
		}},
		{"destination repeated", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[4] = e[2]; return e })
		}},
		{"destinations descending", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[2], e[4] = e[4], e[2]; return e })
		}},
		{"destination == Size(j)", func(size uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[28] = size; return e })
		}},
		{"end below its predecessor", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[5] = e[3] - step; return e })
		}},
		{"end equal to its predecessor", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[5] = e[3]; return e })
		}},
		{"end past the payload", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[29] += step; return e })
		}},
		{"last end short of the payload", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { return e[:28] })
		}},
		{"no entry over a payload with records", func(uint32) []byte { return nil }},
		{"end inside a record", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { e[3]--; return e })
		}},
		{"one entry fewer than the meta counts", func(uint32) []byte {
			return honest(func(e []uint32) []uint32 { return append(e[:26], e[28], e[29]) })
		}},
	}

	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		built, err := blockstore.BuildOpts(mem, chain(1), blockstore.Options{P: p, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if got := built.InCodec(0, 0); got != blockstore.CodecNone {
			t.Fatalf("%v store's in-block (0,0) is %v-coded", format, got)
		}
		size := uint32(built.Layout.Size(0))
		// The honest index loads as built and as hand-framed here: what the
		// loader refuses below is the lie, not the framing.
		honestLoads := func(how string) {
			if _, entries, err := built.LoadInBlockBytesScratch(0, 0, new(blockstore.Scratch)); err != nil || len(entries) != 30 {
				t.Fatalf("%v: honest in-index, %s: %d words, err %v", format, how, len(entries), err)
			}
		}
		honestLoads("as built")
		if err := mem.Put(name, blockstore.FrameForTest(honest(same))); err != nil {
			t.Fatal(err)
		}
		honestLoads("hand-framed")
		for _, c := range lies {
			if err := mem.Put(name, blockstore.FrameForTest(c.index(size))); err != nil {
				t.Fatal(err)
			}
			wantCorruptLoadAndRun(t, format.String()+": "+c.what, mem, storage.ErrCorrupt)
		}

		// And the lie nobody wrote: an ii/ blob from another build of the
		// same shape, whose payload has a different length.
		other := storage.NewMemStore(storage.NewDevice(storage.RAM))
		if _, err := blockstore.BuildOpts(other, chain(2), blockstore.Options{P: p, Format: format}); err != nil {
			t.Fatal(err)
		}
		foreign, err := other.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(name, foreign); err != nil {
			t.Fatal(err)
		}
		wantCorruptLoadAndRun(t, format.String()+": ii/ blob from a second build", mem, storage.ErrCorrupt)
	}
}

// TestRawTwinOfCompressedBlockIsCorrupt: no frame says how its payload is
// encoded — the stored size the meta records does (DESIGN.md §4f). So a
// compressed block swapped for its raw twin, the same cell of a raw build
// of the same graph, must be refused for its length before anything decodes
// raw records as key deltas: in-block (0,0) by the COP loader and by a
// forced-COP run. Out-blocks are raw in every format, so the out-block lie
// is one of another record size: out-block (0,0) of a weighted build, twice
// as long, must be refused for its length by the cache's whole-payload read.
func TestRawTwinOfCompressedBlockIsCorrupt(t *testing.T) {
	g := graph.New(64)
	for v := 0; v+1 < 64; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	mixed := storage.NewMemStore(storage.NewDevice(storage.RAM))
	raw := storage.NewMemStore(storage.NewDevice(storage.RAM))
	weighted := storage.NewMemStore(storage.NewDevice(storage.RAM))
	built, err := blockstore.BuildOpts(mixed, g, blockstore.Options{P: 4, Format: blockstore.FormatMixed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blockstore.BuildOpts(raw, g, blockstore.Options{P: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := blockstore.BuildOpts(weighted, g, blockstore.Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	if built.InCodec(0, 0) != blockstore.CodecVarint {
		t.Fatalf("mixed store's in-block (0,0) is stored %v", built.InCodec(0, 0))
	}
	for _, swap := range []struct {
		name string
		from *storage.MemStore
	}{{"ib/0.0", raw}, {"ob/0.0", weighted}} {
		twin, err := swap.from.ReadAll(swap.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := mixed.Put(swap.name, twin); err != nil {
			t.Fatal(err)
		}
	}
	ds := wantCorruptLoadAndRun(t, "raw twin of in-block (0,0)", mixed, blockstore.ErrStoredSizeForTest)
	if _, err := ds.LoadOutPayload(0, 0); !errors.Is(err, blockstore.ErrStoredSizeForTest) || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("weighted out-block (0,0) in an unweighted store: err = %v, want a storage.ErrCorrupt-class length refusal", err)
	}
}

// wantCorruptLoadAndRun opens the store in mem, whose in-block (0,0) or its
// index lies, and demands an error that is want — storage.ErrCorrupt-class
// either way — from the loader and from a forced-COP run. It returns the
// opened store.
func wantCorruptLoadAndRun(t *testing.T, what string, mem *storage.MemStore, want error) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.LoadInBlockBytesScratch(0, 0, new(blockstore.Scratch)); !errors.Is(err, want) || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("%s: loader: err = %v, want storage.ErrCorrupt-class %v", what, err, want)
	}
	for _, threads := range []int{1, 4} {
		_, err := core.New(ds, core.Config{Model: core.ModelCOP, Threads: threads, PrefetchDepth: 2}).Run(algos.BFS{})
		var ie *core.IterError
		if !errors.As(err, &ie) || !errors.Is(err, want) || !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: COP run, %d threads: err = %v, want a *core.IterError wrapping storage.ErrCorrupt-class %v", what, threads, err, want)
		}
	}
	return ds
}
