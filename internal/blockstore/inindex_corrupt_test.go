package blockstore_test

import (
	"bytes"
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
// Every rule of DESIGN.md §4m is broken here once in each index form: the
// fixed-width form over a raw store's stored-raw payload, the varint form
// over a mixed store's compressed one — the form the meta's recorded index
// size names (codecOf) is the form the loader decodes. The raw store's
// intervals are one vertex wider than a CodecCOO record addresses, so its
// in-blocks keep their in-index. The loader must answer
// storage.ErrCorrupt-class, and a COP run over the store must end in a
// *core.IterError carrying it — never a panic, never a value.
func TestCorruptInIndexIsAnError(t *testing.T) {
	// A chain 0→1→… at P = 4, unweighted, with in-block (0,0) holding 15
	// records, one for each of destinations 1..15: 0→…→63 over 64 vertices
	// for the mixed store, 0→…→15 over intervals of MaxCOOInterval+1 for the
	// raw one. Stored raw that is 4 bytes a record, so the honest entries are
	// (k, 4k); the mixed store gap-codes each one-record section into one
	// byte, so there they are (k, k).
	const p, name = 4, "ii/0.0"
	chain := func(format blockstore.Format, hops int) *graph.Graph {
		n, last := 64, 64
		if format == blockstore.FormatRaw {
			n, last = p*(blockstore.MaxCOOInterval+1), 16
		}
		g := graph.New(n)
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
	type lie struct {
		what  string
		codec blockstore.Codec
		index func(step, size uint32) []byte // step: stored bytes per record; size: Size(j)
	}
	// honest returns the true entries with edit applied, fixed-width.
	honest := func(step uint32, edit func(e []uint32) []uint32) []byte {
		var e []uint32
		for k := uint32(1); k <= 15; k++ {
			e = append(e, k, k*step)
		}
		return fixed(edit(e)...)
	}
	// varint returns the true entries gap-coded — (2, step), then (1, step)
	// fourteen times — with edit applied to the bytes.
	varint := func(step uint32, edit func(b []byte) []byte) []byte {
		b := []byte{2, byte(step)}
		for k := 2; k <= 15; k++ {
			b = append(b, 1, byte(step))
		}
		return edit(b)
	}
	same := func(e []uint32) []uint32 { return e }
	lies := []lie{
		{"odd number of fixed-width words", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { return append(e, 16) })
		}},
		{"destination repeated", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[4] = e[2]; return e })
		}},
		{"destinations descending", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[2], e[4] = e[4], e[2]; return e })
		}},
		{"destination == Size(j)", blockstore.CodecNone, func(s, size uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[28] = size; return e })
		}},
		{"end below its predecessor", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[5] = e[3] - s; return e })
		}},
		{"end equal to its predecessor", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[5] = e[3]; return e })
		}},
		{"end past the payload", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[29] += s; return e })
		}},
		{"last end short of the payload", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { return e[:28] })
		}},
		{"no entry over a payload with records", blockstore.CodecNone, func(_, _ uint32) []byte { return nil }},
		{"varint: zero gap", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { b[4] = 0; return b })
		}},
		{"varint: zero section length", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { b[5] = 0; return b })
		}},
		{"varint: truncated", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { return append(b[:len(b)-1], 0x80) })
		}},
		{"varint: entry without its length", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { return b[:len(b)-1] })
		}},
		{"varint: overlong", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { return append(bytes.Repeat([]byte{0xFF}, 10), b...) })
		}},
		{"varint: destination past the interval", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { b[28] = 2; return b })
		}},
		{"varint: section past the payload", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return varint(s, func(b []byte) []byte { b[29]++; return b })
		}},
		{"fixed-width words where the meta names varint", blockstore.CodecVarint, func(s, _ uint32) []byte {
			return honest(s, same)
		}},
		// The one rule only a stored-raw payload has: an end inside a record.
		{"end inside a record", blockstore.CodecNone, func(s, _ uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[3]--; return e })
		}},
	}

	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		g := chain(format, 1)
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		built, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if got := built.InCodec(0, 0); (got == blockstore.CodecNone) != (format == blockstore.FormatRaw) {
			t.Fatalf("%v store's in-block (0,0) is %v-coded", format, got)
		}
		step, form := uint32(4), func(s, _ uint32) []byte { return honest(s, same) }
		if format == blockstore.FormatMixed {
			step, form = 1, func(s, _ uint32) []byte { return varint(s, func(b []byte) []byte { return b }) }
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
		if err := mem.Put(name, blockstore.FrameForTest(form(step, size))); err != nil {
			t.Fatal(err)
		}
		honestLoads("hand-framed")
		for _, c := range lies {
			if (c.codec == blockstore.CodecNone) != (format == blockstore.FormatRaw) {
				continue // the meta names the other form for this store's index
			}
			if err := mem.Put(name, blockstore.FrameForTest(c.index(step, size))); err != nil {
				t.Fatal(err)
			}
			wantCorruptLoadAndRun(t, format.String()+": "+c.what, mem, storage.ErrCorrupt)
		}

		// And the lie nobody wrote: an ii/ blob from another build of the
		// same shape, whose payload has a different length.
		other := storage.NewMemStore(storage.NewDevice(storage.RAM))
		if _, err := blockstore.BuildOpts(other, chain(format, 2), blockstore.Options{P: p, Format: format}); err != nil {
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
// raw records as varint gaps: in-block (0,0) by the COP loader and by a
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
