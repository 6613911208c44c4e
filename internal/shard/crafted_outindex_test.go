package shard_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// frameByHand wraps payload in a store's 17-byte blob frame — magic "HUSF",
// version 1, CRC32C of the payload, its length — so a crafted blob passes
// every whole-read check and only what it says can be wrong.
func frameByHand(payload []byte) []byte {
	b := append([]byte("HUSF"), 1)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

// pageCRCsByHand is the CRC32C of each blockstore.PageBytes page of payload,
// the last one partial: what a store's meta records for an out-index.
func pageCRCsByHand(payload []byte) []uint32 {
	var crcs []uint32
	for off := 0; off < len(payload); off += blockstore.PageBytes {
		crcs = append(crcs, crc32.Checksum(payload[off:min(off+blockstore.PageBytes, len(payload))], crc32.MakeTable(crc32.Castagnoli)))
	}
	return crcs
}

// TestCraftedOutIndexIsAnError: ROP reads an out-index in place and the
// loader checks only its length or, read as pages, that they carry the CRCs
// the meta records — re-recorded here for each crafted blob, so that what is
// tested is what ROP checks. An out-index is a group per 64 sources: the
// record offset of the group's first section, then a degree byte per source,
// 255 standing for a degree the meta's escape list gives exactly. Each
// active section is worked out from them where ROP uses it, and must start
// at or after the previous one's end, end inside its block, and be nonempty,
// since ROP walks only the sources the meta's mask marks as having an edge
// in the block (the mask carries the meta's CRC; the index is what is
// checked against it); a byte of 255 must have its escape, and the escapes
// it reads must ascend. The escape list passes Open's checks when it is
// read from the meta, so the lies about it are set on the opened store, as
// the page CRCs are. A correctly framed out-index, or escape list, that lies
// must end the run with a storage.ErrCorrupt-class *core.IterError in the
// iteration that first reads the lie — never a panic, nor a push of one
// source's value along another's edges. Every lie, over an unweighted raw
// store, a mixed one (whose out-indices and out-blocks are the raw store's)
// and a weighted raw one, at 1 and 4 threads, through one engine and two
// shards, with and without a block cache (which holds an index whole); and
// every goroutine must be gone afterwards (leaktest.Main).
func TestCraftedOutIndexIsAnError(t *testing.T) {
	// 64 vertices, P = 4, BFS from vertex 0: out-index (0,1) is one group,
	// a base of 0 and sixteen degrees. Iteration 0 pushes vertex 0's section
	// of each out-block (0, j). Vertex 0 points at everyone but 3 and 4, so
	// iteration 1 pushes vertices 1, 2, 5, …, 15 of row 0 and not the two
	// between 2 and 5, whose degree bytes it sums over; 2, 5 and 15 have
	// edges into interval 1.
	g := graph.New(64)
	for v := 1; v < 64; v++ {
		if v != 3 && v != 4 {
			g.AddEdge(0, graph.VertexID(v))
		}
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%64))
	}
	g.AddEdge(2, 20)
	g.AddEdge(5, 21)
	g.Dedup()
	// 1024 vertices, P = 2: vertices 0, 1 and 2 point at 300, 280 and 260
	// vertices of interval 1, so their degree bytes in out-index (0,1)
	// escape, and vertex 3 at one. Iteration 0 pushes vertex 0, iteration 1
	// vertex 3 (0 → 3), whose section starts past the three escaped ones.
	escaping := graph.New(1024)
	escaping.AddEdge(0, 3)
	escaping.AddEdge(3, 512)
	for src := 0; src < 3; src++ {
		for v := 512; v < 812-20*src; v++ {
			escaping.AddEdge(graph.VertexID(src), graph.VertexID(v))
		}
	}
	escaping.Dedup()

	base := func(idx []byte, records int64) { binary.LittleEndian.PutUint32(idx, uint32(records)) }
	for _, store := range []blockstore.Options{
		{P: 4, Format: blockstore.FormatRaw},
		{P: 4, Format: blockstore.FormatMixed},
		{P: 4, Format: blockstore.FormatRaw, Weighted: true},
	} {
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		built, err := blockstore.BuildOpts(mem, g, store)
		if err != nil {
			t.Fatal(err)
		}
		honest, err := built.LoadOutIndexScratch(0, 1, &blockstore.Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		degs := honest[4:20]
		if binary.LittleEndian.Uint32(honest) != 0 || degs[0] != 16 || degs[2] != 1 || degs[3] != 0 || degs[4] != 0 || degs[5] != 1 || degs[15] != 1 {
			t.Fatalf("%+v: out-index (0,1) is %v; want a base of 0, vertex 0 of degree 16, 2, 5 and 15 of 1, 3 and 4 of 0", store, honest)
		}
		records := built.BlockEdgeCount[0][1]
		runLies(t, mem, store, honest, []outIndexLie{
			// Vertex 0's section starts at the block's end.
			{"a base past the block", func(idx []byte) { base(idx, records) }, nil, 0},
			// Vertex 3, never pushed while 5 is, claims 200 edges, so 5's
			// section starts past the block.
			{"degrees that sum past it", func(idx []byte) { idx[4+3] = 200 }, nil, 1},
			// Vertex 2's edge handed to vertex 3, which the meta's mask marks
			// dead in the block: skipping 2 would drop the edge 2 → 20
			// without a word.
			{"a live source's section empty", func(idx []byte) { idx[4+2], idx[4+3] = 0, 1 }, nil, 1},
			// Vertex 4's byte escapes, and the block has no escapes.
			{"a degree byte 255 with no escape", func(idx []byte) { idx[4+4] = 255 }, nil, 1},
		})

		store.P = 2
		mem = storage.NewMemStore(storage.NewDevice(storage.SSD))
		built, err = blockstore.BuildOpts(mem, escaping, store)
		if err != nil {
			t.Fatal(err)
		}
		if honest, err = built.LoadOutIndexScratch(0, 1, &blockstore.Scratch{}); err != nil {
			t.Fatal(err)
		}
		want := []blockstore.Escape{{Src: 0, Degree: 300}, {Src: 1, Degree: 280}, {Src: 2, Degree: 260}}
		if x := built.OutIndexEscapes[0][1]; string(honest[4:8]) != "\xff\xff\xff\x01" || !slices.Equal(x, want) {
			t.Fatalf("%+v: out-index (0,1) degree bytes %v, escapes %v; want 255 thrice and 1, escapes %v", store, honest[4:8], x, want)
		}
		runLies(t, mem, store, honest, []outIndexLie{
			// Vertex 0 finds vertex 1's escape, 20 records short, where its
			// own should be.
			{"escapes out of order", nil, func(x []blockstore.Escape) { x[0], x[1] = x[1], x[0] }, 0},
			// Vertex 0's escape twice and vertex 1's none: the second names
			// a source vertex 0's section has already summed.
			{"an escape naming a source twice", nil, func(x []blockstore.Escape) { x[1] = x[0] }, 0},
			// Vertex 1's exact degree below what its byte could hold:
			// vertex 3's section would start 270 records early.
			{"an escape below 255", nil, func(x []blockstore.Escape) { x[1].Degree = 10 }, 1},
		})
	}
}

// outIndexLie is one crafted lie about out-index (0,1).
type outIndexLie struct {
	what    string
	index   func(idx []byte)          // rewrites the index's bytes
	escapes func([]blockstore.Escape) // rewrites its escapes
	iter    int                       // the first iteration that reads the lie
}

// runLies puts each lie's out-index (0,1) — the honest one rewritten — into
// mem, opens it with the lie's escapes, and runs BFS under forced ROP, which
// must fail in the lie's iteration at 1 and 4 threads, K = 1 and 2, with and
// without a cache.
func runLies(t *testing.T, mem *storage.MemStore, store blockstore.Options, honest []byte, lies []outIndexLie) {
	t.Helper()
	for _, c := range lies {
		index := append([]byte(nil), honest...)
		if c.index != nil {
			c.index(index)
		}
		if err := mem.Put("oi/0.1", frameByHand(index)); err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			for _, k := range []int{1, 2} {
				for _, cache := range []int64{0, 64 << 20} {
					what := fmt.Sprintf("%v/weighted=%v/P=%d/%s/threads=%d/K=%d/cache=%d", store.Format, store.Weighted, store.P, c.what, threads, k, cache)
					ds, err := blockstore.Open(mem)
					if err != nil {
						t.Fatal(err)
					}
					ds.OutIndexPageCRCs[0][1] = pageCRCsByHand(index)
					if c.escapes != nil {
						ds.OutIndexEscapes[0][1] = append([]blockstore.Escape(nil), ds.OutIndexEscapes[0][1]...)
						c.escapes(ds.OutIndexEscapes[0][1])
					}
					if _, err := ds.LoadOutIndexScratch(0, 1, &blockstore.Scratch{}); err != nil {
						t.Fatalf("%s: the loader refused the crafted index (%v); the lie must reach ROP", what, err)
					}
					co, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelROP, Threads: threads, CacheBudgetBytes: cache}, Shards: k})
					if err != nil {
						t.Fatal(err)
					}
					_, err = co.Run(algos.BFS{})
					var ie *core.IterError
					if !errors.As(err, &ie) || !errors.Is(err, storage.ErrCorrupt) || ie.Iter != c.iter {
						t.Fatalf("%s: err = %v, want a *core.IterError of iteration %d wrapping storage.ErrCorrupt", what, err, c.iter)
					}
				}
			}
		}
	}
}
