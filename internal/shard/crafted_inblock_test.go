package shard_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// TestCraftedInBlockIsAnError: a correctly framed in-block whose sections
// lie — a record naming a neighbour past |V|, or, stored compressed, a varint
// gap that overshoots the vertex set or never terminates — passes every
// whole-read check (CRC, stored size, in-index), so only the COP kernel
// that reads the section can refuse it. Each lie must end the run with a
// storage.ErrCorrupt-class *core.IterError of iteration 0: before the
// kernels tested their neighbours, a raw record past |V| panicked "index
// out of range" inside the fold (in a chunk worker at Threads > 1, killing
// the process). Every lie, over a raw and a mixed
// store, at 1 and 4 threads, through one engine and two shards, read inline
// and through a prefetching cache that keeps the block decoded; each
// program picks another kernel — BFS the probing min, WCC the all-active
// min, PageRank the all-active sum, SSSP on a weighted store the Combine
// fallback — and every goroutine must be gone afterwards (leaktest.Main).
// The raw store's intervals are one vertex wider than a CodecCOO record
// addresses, so its in-blocks keep their in-index and packed records: the
// same 64 vertices, spread over intervals of MaxCOOInterval+1.
func TestCraftedInBlockIsAnError(t *testing.T) {
	// 64 vertices, P = 4: in-block (0,1) holds the edges v → v+17 of
	// interval 0, one record per destination of interval 1 it reaches.
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		n, stride := craftedVertices, 1
		if format == blockstore.FormatRaw {
			n, stride = craftedP*(blockstore.MaxCOOInterval+1), 4100
		}
		craftedLies(t, format, n, stride, func(stored []byte, entries []uint32, codec blockstore.Codec, _ int) map[string]func(b []byte) {
			if want := format == blockstore.FormatMixed; (codec == blockstore.CodecVarint) != want || len(entries) < 4 {
				t.Fatalf("%v: in-block (0,1) is %v with %d entries; want it compressed iff the store is mixed, and two or more entries", format, codec, len(entries)/2)
			}
			first := int(entries[1]) // the first destination's section is stored[:first]
			if codec != blockstore.CodecVarint {
				return map[string]func(b []byte){
					// The first record's neighbour, stored raw, moved past |V|.
					"a neighbour past |V|": func(b []byte) { binary.LittleEndian.PutUint32(b, uint32(n+5)) },
				}
			}
			return map[string]func(b []byte){
				// A one-byte gap from −1 to 126: its neighbour.
				"a gap past |V|": func(b []byte) { b[0] = 0x7f },
				// Continuation bits to the section's end.
				"an unterminated varint": func(b []byte) {
					for k := range first {
						b[k] = 0xff
					}
				},
			}
		})
	}
}

// TestCraftedCOORecordIsAnError: a raw store over intervals that fit 16
// bits keeps its in-blocks as one (destination, source) record per edge and
// no in-index, so nothing but the COP kernel checks a record. Each rule it
// holds records to is broken once in in-block (0,1) — a destination that
// decreases, a source that decreases within one destination, a destination
// past its interval, a source past its interval, and a payload that is not
// whole records (which the loader's stored-size check refuses first) — and
// the run must end as TestCraftedInBlockIsAnError's do, over the same
// programs, threads, shard counts and cache. One more lie moves a record of
// the first quarter onto the block's last destination: at 4 threads the
// block splits at destination changes, and the chunk holding the lie must
// stop before writing the accumulator the last chunk owns — under -race a
// write from both is a reported race. The last lie splits the block in
// three places at 4 threads: the second quarter's last record moves onto
// the first quarter's destinations and the third quarter's first just above
// it, so a third chunk bounded below by the second's last key alone would
// fold a destination the first chunk owns.
func TestCraftedCOORecordIsAnError(t *testing.T) {
	craftedLies(t, blockstore.FormatRaw, craftedVertices, 1, func(stored []byte, entries []uint32, codec blockstore.Codec, step int) map[string]func(b []byte) {
		recs := len(stored) / step
		if codec != blockstore.CodecCOO || entries != nil || recs != 16 {
			t.Fatalf("in-block (0,1) is %v with %d index words and %d records; want CodecCOO, none and sixteen", codec, len(entries), recs)
		}
		key := func(b []byte, r int) uint32 { return binary.LittleEndian.Uint32(b[r*step:]) }
		put := func(b []byte, r int, k uint32) { binary.LittleEndian.PutUint32(b[r*step:], k) }
		if key(stored, 0)&0xffff == 0 || key(stored, 0)>>16 == key(stored, 1)>>16 {
			t.Fatalf("in-block (0,1) starts with keys %#x, %#x; want a nonzero source and two destinations", key(stored, 0), key(stored, 1))
		}
		size := uint32(craftedVertices / craftedP)
		return map[string]func(b []byte){
			"a destination that decreases":                   func(b []byte) { k0, k1 := key(b, 0), key(b, 1); put(b, 0, k1); put(b, 1, k0) },
			"a source that decreases within one destination": func(b []byte) { put(b, 1, key(b, 0)-1) },
			"a destination past its interval":                func(b []byte) { put(b, recs-1, size<<16) },
			"a source past its interval":                     func(b []byte) { put(b, 0, key(b, 0)&^0xffff|size) },
			"a payload that is not whole records":            nil,
			"a record moved onto the last chunk's destination": func(b []byte) {
				put(b, 1, key(b, recs-1)&^0xffff|key(b, 1)&0xffff)
			},
			"a middle chunk ending below the chunk before it": func(b []byte) {
				put(b, recs/2-1, key(b, 1))
				put(b, recs/2, key(b, 2))
			},
		}
	})
}

// The crafted stores: craftedVertices vertices in craftedP intervals, each
// vertex v joined to v+1 and v+17, symmetrized.
const craftedVertices, craftedP = 64, 4

// craftedLies builds the crafted graph — vertex v at ID v·stride of n —
// in format for each program, hands in-block (0,1) as loaded, its codec and
// its record size to lies, and runs every lie it returns, written over the
// block's bytes (nil: the block cut short by two bytes), through every
// configuration the tests above name.
func craftedLies(t *testing.T, format blockstore.Format, n, stride int, lies func(stored []byte, entries []uint32, codec blockstore.Codec, step int) map[string]func(b []byte)) {
	t.Helper()
	const name = "ib/0.1"
	g := graph.New(n)
	for v := 0; v < craftedVertices; v++ {
		id := func(u int) graph.VertexID { return graph.VertexID(u % craftedVertices * stride) }
		g.AddWeightedEdge(id(v), id(v+1), 1)
		g.AddWeightedEdge(id(v), id(v+17), 2)
	}
	g = g.Symmetrize()
	progs := []struct {
		prog     core.Program
		weighted bool
	}{{algos.BFS{}, false}, {algos.WCC{}, false}, {&algos.PageRank{}, false}, {algos.SSSP{}, true}}
	for _, pr := range progs {
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		built, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: craftedP, Format: format, Weighted: pr.weighted})
		if err != nil {
			t.Fatal(err)
		}
		stored, entries, err := built.LoadInBlockBytesScratch(0, 1, new(blockstore.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		for what, lie := range lies(stored, entries, built.InCodec(0, 1), blockstore.RawRecordBytes(pr.weighted)) {
			crafted := append([]byte(nil), stored...)
			if lie == nil {
				crafted = crafted[:len(crafted)-2]
			} else {
				lie(crafted)
			}
			if err := mem.Put(name, frameByHand(crafted)); err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 4} {
				for _, k := range []int{1, 2} {
					for _, cached := range []bool{false, true} {
						tag := fmt.Sprintf("%v/%s/%s/threads=%d/K=%d/cached=%v", format, pr.prog.Name(), what, threads, k, cached)
						ds, err := blockstore.Open(mem)
						if err != nil {
							t.Fatal(err)
						}
						cfg := core.Config{Model: core.ModelCOP, Threads: threads}
						if cached {
							cfg.PrefetchDepth, cfg.CacheBudgetBytes = 2, 64<<20
						}
						co, err := shard.New(ds, shard.Config{Config: cfg, Shards: k})
						if err != nil {
							t.Fatal(err)
						}
						_, err = co.Run(pr.prog)
						var ie *core.IterError
						if !errors.As(err, &ie) || !errors.Is(err, storage.ErrCorrupt) || ie.Iter != 0 {
							t.Fatalf("%s: err = %v, want a *core.IterError of iteration 0 wrapping storage.ErrCorrupt", tag, err)
						}
					}
				}
			}
		}
	}
}
