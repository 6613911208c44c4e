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
// Every rule of DESIGN.md §4m is broken here once, in the fixed-width form
// and in the varint form, over a stored-raw and over a compressed payload:
// the loader must answer storage.ErrCorrupt-class, and a COP run over the
// store must end in a *core.IterError carrying it — never a panic, never a
// value.
func TestCorruptInIndexIsAnError(t *testing.T) {
	// 0→1→…→63 at P = 4, unweighted: in-block (0,0) holds 15 records, one for
	// each of destinations 1..15. Stored raw that is 4 bytes a record, so the
	// honest entries are (k, 4k); the mixed store gap-codes each one-record
	// section into one byte, so there they are (k, k).
	const n, p, name = 64, 4, "ii/0.0"
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
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
		index func(step uint32) []byte // step: stored bytes per record
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
		{"odd number of fixed-width words", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { return append(e, 16) })
		}},
		{"destination repeated", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[4] = e[2]; return e })
		}},
		{"destinations descending", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[2], e[4] = e[4], e[2]; return e })
		}},
		{"destination == Size(j)", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[28] = n / p; return e })
		}},
		{"end below its predecessor", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[5] = e[3] - s; return e })
		}},
		{"end equal to its predecessor", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[5] = e[3]; return e })
		}},
		{"end past the payload", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { e[29] += s; return e })
		}},
		{"last end short of the payload", blockstore.CodecNone, func(s uint32) []byte {
			return honest(s, func(e []uint32) []uint32 { return e[:28] })
		}},
		{"no entry over a payload with records", blockstore.CodecNone, func(uint32) []byte { return nil }},
		{"varint: zero gap", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { b[4] = 0; return b })
		}},
		{"varint: zero section length", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { b[5] = 0; return b })
		}},
		{"varint: truncated", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { return append(b[:len(b)-1], 0x80) })
		}},
		{"varint: entry without its length", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { return b[:len(b)-1] })
		}},
		{"varint: overlong", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { return append(bytes.Repeat([]byte{0xFF}, 10), b...) })
		}},
		{"varint: destination past the interval", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { b[28] = 2; return b })
		}},
		{"varint: section past the payload", blockstore.CodecVarint, func(s uint32) []byte {
			return varint(s, func(b []byte) []byte { b[29]++; return b })
		}},
		{"unknown index codec", blockstore.Codec(2), func(s uint32) []byte {
			return honest(s, same)
		}},
		{"fixed-width words under the varint tag", blockstore.CodecVarint, func(s uint32) []byte {
			return honest(s, same)
		}},
	}
	// The one rule only a stored-raw payload has: an end inside a record.
	splitRecord := lie{"end inside a record", blockstore.CodecNone, func(s uint32) []byte {
		return honest(s, func(e []uint32) []uint32 { e[3]--; return e })
	}}

	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		built, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if got := built.InCodec(0, 0); (got == blockstore.CodecNone) != (format == blockstore.FormatRaw) {
			t.Fatalf("%v store's in-block (0,0) is %v-coded", format, got)
		}
		step, cases := uint32(4), append(lies[:len(lies):len(lies)], splitRecord)
		if format == blockstore.FormatMixed {
			step, cases = 1, lies
		}
		// The honest index loads as built and as hand-framed here, in both
		// forms: what the loader refuses below is the lie, not the framing.
		honestLoads := func(how string) {
			if _, entries, err := built.LoadInBlockBytesScratch(0, 0, new(blockstore.Scratch)); err != nil || len(entries) != 30 {
				t.Fatalf("%v: honest in-index, %s: %d words, err %v", format, how, len(entries), err)
			}
		}
		honestLoads("as built")
		if err := mem.Put(name, blockstore.FrameForTest(honest(step, same), format, blockstore.CodecNone)); err != nil {
			t.Fatal(err)
		}
		honestLoads("fixed-width")
		if format == blockstore.FormatMixed {
			if err := mem.Put(name, blockstore.FrameForTest(varint(step, func(b []byte) []byte { return b }), format, blockstore.CodecVarint)); err != nil {
				t.Fatal(err)
			}
			honestLoads("varint")
		}
		for _, c := range cases {
			if c.codec != blockstore.CodecNone && format == blockstore.FormatRaw {
				continue // a raw store's frames carry no codec tag
			}
			if err := mem.Put(name, blockstore.FrameForTest(c.index(step), format, c.codec)); err != nil {
				t.Fatal(err)
			}
			wantCorruptLoadAndRun(t, format.String()+": "+c.what, mem)
		}

		// And the lie nobody wrote: an ii/ blob from another build of the
		// same shape, whose payload has a different length.
		g2 := graph.New(n)
		for v := 0; v+2 < n; v++ {
			g2.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
			g2.AddEdge(graph.VertexID(v), graph.VertexID(v+2))
		}
		other := storage.NewMemStore(storage.NewDevice(storage.RAM))
		if _, err := blockstore.BuildOpts(other, g2, blockstore.Options{P: p, Format: format}); err != nil {
			t.Fatal(err)
		}
		foreign, err := other.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(name, foreign); err != nil {
			t.Fatal(err)
		}
		wantCorruptLoadAndRun(t, format.String()+": ii/ blob from a second build", mem)
	}
}

// wantCorruptLoadAndRun opens the store in mem, whose in-index (0,0) lies,
// and demands corruption from the loader and from a forced-COP run.
func wantCorruptLoadAndRun(t *testing.T, what string, mem *storage.MemStore) {
	t.Helper()
	ds, err := blockstore.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.LoadInBlockBytesScratch(0, 0, new(blockstore.Scratch)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("%s: loader: err = %v, want storage.ErrCorrupt-class", what, err)
	}
	for _, threads := range []int{1, 4} {
		_, err := core.New(ds, core.Config{Model: core.ModelCOP, Threads: threads, PrefetchDepth: 2}).Run(algos.BFS{})
		var ie *core.IterError
		if !errors.As(err, &ie) || !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: COP run, %d threads: err = %v, want a *core.IterError wrapping storage.ErrCorrupt", what, threads, err)
		}
	}
}
