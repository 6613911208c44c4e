package shard_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// tested is what ROP checks. The offsets ROP uses are checked where it uses
// them — each active span must start at or after the previous one's end,
// end inside its block, start and end on a record boundary, and be
// nonempty, since ROP walks only the sources the meta's mask marks as
// having an edge in the block (the mask carries the meta's CRC; the index is
// what is checked against it). A correctly framed out-index that lies must
// end the run with a storage.ErrCorrupt-class *core.IterError: before the
// checks, decreasing entries panicked in ropAccumulate (inside a
// parallelFor goroutine at Threads > 1, killing the process), an entry
// past the block's end came back as the store's plain out-of-range error,
// two sections out of order across inactive vertices pushed one vertex's
// value along another's edges without a word, and a section cut mid-record
// on a weighted store panicked reading the weight past its end. Each lie
// must be refused in the iteration that first reads it. Every lie, over an
// unweighted raw store, a mixed one (whose out-indices and out-blocks are
// the raw store's) and a weighted raw one, at 1 and 4 threads, through one
// engine and two shards; and every goroutine must be gone afterwards
// (leaktest.Main).
func TestCraftedOutIndexIsAnError(t *testing.T) {
	// 64 vertices, P = 4, BFS from vertex 0. Iteration 0 pushes vertex 0's
	// section of each out-block (0, j) — entries 0 and 1 of out-index
	// (0, j). Vertex 0 points at everyone but 3 and 4, so iteration 1 pushes
	// vertices 1, 2, 5, …, 15 of row 0 and not the two between 2 and 5,
	// whose edges into interval 1 make their sections of out-block (0,1)
	// nonempty.
	const n, p, name = 64, 4, "oi/0.1"
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if v != 3 && v != 4 {
			g.AddEdge(0, graph.VertexID(v))
		}
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	g.AddEdge(2, 20)
	g.AddEdge(5, 21)
	g.Dedup()
	fixed := func(words []uint32) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	for _, store := range []blockstore.Options{
		{P: p, Format: blockstore.FormatRaw},
		{P: p, Format: blockstore.FormatMixed},
		{P: p, Format: blockstore.FormatRaw, Weighted: true},
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
		words := make([]uint32, len(honest)/4)
		for k := range words {
			words[k] = binary.LittleEndian.Uint32(honest[4*k:])
		}
		blockBytes := uint32(built.OutBlockBytes(0, 1))
		if words[0] != 0 || words[1] == 0 || words[2] == words[3] || words[3] != words[5] || words[5] == words[6] {
			t.Fatalf("%+v: out-index (0,1) is %v; want vertices 0, 2 and 5 to have sections, 3 and 4 none", store, words)
		}
		// Decreasing: vertex 0's section ends before it starts.
		decreasing := append([]uint32(nil), words...)
		decreasing[0], decreasing[1] = words[1], 0
		// Past the end: every offset from vertex 0's end on moved past the
		// block.
		pastEnd := append([]uint32(nil), words...)
		for k := 1; k < len(pastEnd); k++ {
			pastEnd[k] += blockBytes
		}
		// Out of order: vertices 2 and 5 trade sections, so 5's starts
		// before 2's ends. Each span iteration 1 reads is well formed on its
		// own — the malformed ones are 3's or 4's, read an iteration later.
		swapped := append([]uint32(nil), words...)
		swapped[2], swapped[3], swapped[4], swapped[5], swapped[6] = words[5], words[6], words[6], words[2], words[3]
		// Mask live, span empty: vertex 2's section shrunk to nothing and
		// handed to vertex 3, which the meta's mask marks dead in the block.
		// Skipping 2 and never visiting 3 would drop the edge 2 → 20 without
		// a word; the mask and the index disagree, and iteration 1 — the
		// first with 2 active — must say so.
		emptied := append([]uint32(nil), words...)
		emptied[3] = words[2]
		// Mid-record: vertex 15's section, the block's last, ends two bytes
		// early; vertex 5's starts two bytes late, the spare bytes going to
		// vertex 4, which is never active. Either span is ordered, nonempty
		// and inside the block — only its record boundaries are wrong.
		endsMid := append([]uint32(nil), words...)
		endsMid[len(endsMid)-1] -= 2
		startsMid := append([]uint32(nil), words...)
		startsMid[5] += 2
		for _, c := range []struct {
			what  string
			index []uint32
			iter  int // the first iteration that reads the lie
		}{
			{"decreasing", decreasing, 0},
			{"past the block's end", pastEnd, 0},
			{"sections out of order", swapped, 1},
			{"a live source's section empty", emptied, 1},
			{"a section ending mid-record", endsMid, 1},
			{"a section starting mid-record", startsMid, 1},
		} {
			index := fixed(c.index)
			if err := mem.Put(name, frameByHand(index)); err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 4} {
				for _, k := range []int{1, 2} {
					what := fmt.Sprintf("%v/weighted=%v/%s/threads=%d/K=%d", store.Format, store.Weighted, c.what, threads, k)
					ds, err := blockstore.Open(mem)
					if err != nil {
						t.Fatal(err)
					}
					ds.OutIndexPageCRCs[0][1] = pageCRCsByHand(index)
					if _, err := ds.LoadOutIndexScratch(0, 1, &blockstore.Scratch{}); err != nil {
						t.Fatalf("%s: the loader refused the crafted index (%v); the lie must reach ROP", what, err)
					}
					co, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelROP, Threads: threads}, Shards: k})
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
