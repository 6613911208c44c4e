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

// tiledGraph is a graph over two intervals of MaxCOOInterval+1 vertices,
// unweighted, whose in-block (1,0) — sources [w, 2w), destinations [0, w),
// w = MaxCOOInterval+1 — has an edge in each of its 2 × 2 tiles: 15 into
// tile (0,0), one into each of the three tiles a single vertex wide on at
// least one side. So a raw build stores it as a 16-byte directory, then 60,
// 4, 4 and 4 bytes of records.
func tiledGraph() *graph.Graph {
	const w = blockstore.MaxCOOInterval + 1
	g := graph.New(2 * w)
	for k := 1; k <= 15; k++ {
		g.AddEdge(graph.VertexID(w+k), graph.VertexID(k))
	}
	g.AddEdge(2*w-1, 7)   // tile (0,1): its one source
	g.AddEdge(w+3, w-1)   // tile (1,0): its one destination
	g.AddEdge(2*w-1, w-1) // tile (1,1): one of each
	g.AddEdge(0, graph.VertexID(w+1))
	return g
}

// TestCorruptTileIsAnError: COP cuts an in-block into tiles by its
// directory and folds each tile's keys into a slice of the accumulators and
// the message table, so a block that lies — correctly framed, CRC intact,
// its stored size the meta's — has to be stopped before a kernel indexes
// past its tile. Each lie must end a forced-COP run, at 1 and 4 threads,
// with the block cache off and holding every block, in a *core.IterError
// carrying storage.ErrCorrupt — never a panic, never a value. The
// directory lies are told in a raw and a mixed store; the record lies in a
// raw one, whose tiles are CodecCOO records.
func TestCorruptTileIsAnError(t *testing.T) {
	const name = "ib/1.0"
	key := func(dst, src uint32) uint32 { return dst<<16 | src }
	lies := []struct {
		what   string
		format blockstore.Format // the lie's only format, or both when -1
		edit   func(dir []uint32, payload []byte)
	}{
		{"a directory whose ends fall", -1, func(dir []uint32, _ []byte) { dir[1] = dir[0] - 4 }},
		{"a last end that is not the payload length", -1, func(dir []uint32, _ []byte) { dir[3] = dir[2] }},
		{"an end past the payload", -1, func(dir []uint32, payload []byte) { dir[3] = uint32(len(payload)) + 4 }},
		{"a CodecCOO tile that is not whole records", blockstore.FormatRaw, func(dir []uint32, _ []byte) { dir[0] -= 2 }},
		{"a destination past a partial tile's edge", blockstore.FormatRaw, func(dir []uint32, payload []byte) {
			binary.LittleEndian.PutUint32(payload[dir[2]:], key(1, 0)) // tile (1,1) is one destination
		}},
		{"a source past a partial tile's edge", blockstore.FormatRaw, func(dir []uint32, payload []byte) {
			binary.LittleEndian.PutUint32(payload[dir[0]:], key(7, 1)) // tile (0,1) is one source
		}},
	}
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		built, err := blockstore.BuildOpts(mem, tiledGraph(), blockstore.Options{P: 2, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		honest, err := built.LoadInBlockScratch(1, 0, new(blockstore.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		honest = append([]byte(nil), honest...)
		tiles, err := built.InTiles(1, 0, honest, nil)
		if err != nil || len(tiles) != 4 {
			t.Fatalf("%v: honest in-block (1,0) is %d tiles (%v), want 4", format, len(tiles), err)
		}
		if want := map[blockstore.Format]blockstore.Codec{blockstore.FormatRaw: blockstore.CodecCOO, blockstore.FormatMixed: blockstore.CodecVarint}[format]; built.InCodec(1, 0) != want || format == blockstore.FormatRaw && len(honest) != 16+60+3*4 {
			t.Fatalf("%v: in-block (1,0) is %v in %d bytes", format, built.InCodec(1, 0), len(honest))
		}
		for _, c := range lies {
			if c.format != -1 && c.format != format {
				continue
			}
			payload := append([]byte(nil), honest...)
			dir := make([]uint32, 4)
			for t := range dir {
				dir[t] = binary.LittleEndian.Uint32(payload[4*t:])
			}
			c.edit(dir, payload)
			for t, end := range dir {
				binary.LittleEndian.PutUint32(payload[4*t:], end)
			}
			if err := mem.Put(name, blockstore.FrameForTest(payload)); err != nil {
				t.Fatal(err)
			}
			wantCorruptRun(t, format.String()+": "+c.what, mem, storage.ErrCorrupt)
		}
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
// A tiled block's raw twin is refused the same way.
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

	// The same over tiles: in-block (1,0) of tiledGraph's mixed build,
	// CodecVarint tiles, swapped for the raw build's CodecCOO tiles.
	tiledMixed := storage.NewMemStore(storage.NewDevice(storage.RAM))
	tiledRaw := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if built, err := blockstore.BuildOpts(tiledMixed, tiledGraph(), blockstore.Options{P: 2, Format: blockstore.FormatMixed}); err != nil || built.InCodec(1, 0) != blockstore.CodecVarint {
		t.Fatalf("tiled mixed build: in-block (1,0) stored %v (%v)", built.InCodec(1, 0), err)
	}
	if _, err := blockstore.BuildOpts(tiledRaw, tiledGraph(), blockstore.Options{P: 2}); err != nil {
		t.Fatal(err)
	}
	twin, err := tiledRaw.ReadAll("ib/1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tiledMixed.Put("ib/1.0", twin); err != nil {
		t.Fatal(err)
	}
	ds = wantCorruptRun(t, "raw twin of tiled in-block (1,0)", tiledMixed, blockstore.ErrStoredSizeForTest)
	if _, err := ds.LoadInBlockScratch(1, 0, new(blockstore.Scratch)); !errors.Is(err, blockstore.ErrStoredSizeForTest) || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("raw twin of tiled in-block (1,0): loader: err = %v, want a storage.ErrCorrupt-class length refusal", err)
	}
}

// wantCorruptLoadAndRun opens the store in mem, whose in-block (0,0) lies,
// and demands an error that is want — storage.ErrCorrupt-class either way —
// from the loader and from forced-COP runs (wantCorruptRun). It returns the
// opened store.
func wantCorruptLoadAndRun(t *testing.T, what string, mem *storage.MemStore, want error) *blockstore.DualStore {
	t.Helper()
	ds := wantCorruptRun(t, what, mem, want)
	if _, err := ds.LoadInBlockScratch(0, 0, new(blockstore.Scratch)); !errors.Is(err, want) || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("%s: loader: err = %v, want storage.ErrCorrupt-class %v", what, err, want)
	}
	return ds
}

// wantCorruptRun opens the store in mem, one of whose in-blocks lies, and
// demands that a forced-COP run end in a *core.IterError wrapping want,
// storage.ErrCorrupt-class, at 1 and 4 threads, with the block cache off
// and holding every block. It returns the opened store.
func wantCorruptRun(t *testing.T, what string, mem *storage.MemStore, want error) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		for _, cache := range []int64{0, 64 << 20} {
			_, err := core.New(ds, core.Config{Model: core.ModelCOP, Threads: threads, PrefetchDepth: 2, CacheBudgetBytes: cache}).Run(algos.BFS{})
			var ie *core.IterError
			if !errors.As(err, &ie) || !errors.Is(err, want) || !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("%s: COP run, %d threads, cache %d: err = %v, want a *core.IterError wrapping storage.ErrCorrupt-class %v", what, threads, cache, err, want)
			}
		}
	}
	return ds
}
