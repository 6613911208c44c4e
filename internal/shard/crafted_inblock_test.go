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
func TestCraftedInBlockIsAnError(t *testing.T) {
	// 64 vertices, P = 4: in-block (0,1) holds the edges v → v+17 of
	// interval 0, one record per destination of interval 1 it reaches.
	const n, p, name = 64, 4, "ib/0.1"
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddWeightedEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
		g.AddWeightedEdge(graph.VertexID(v), graph.VertexID((v+17)%n), 2)
	}
	g = g.Symmetrize()
	progs := []struct {
		prog     core.Program
		weighted bool
	}{{algos.BFS{}, false}, {algos.WCC{}, false}, {&algos.PageRank{}, false}, {algos.SSSP{}, true}}
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		for _, pr := range progs {
			mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
			built, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Format: format, Weighted: pr.weighted})
			if err != nil {
				t.Fatal(err)
			}
			stored, entries, err := built.LoadInBlockBytesScratch(0, 1, new(blockstore.Scratch))
			if err != nil {
				t.Fatal(err)
			}
			codec := built.InCodec(0, 1)
			if want := format == blockstore.FormatMixed; (codec == blockstore.CodecVarint) != want || len(entries) < 4 {
				t.Fatalf("%v: in-block (0,1) is %v with %d entries; want it compressed iff the store is mixed, and two or more entries", format, codec, len(entries)/2)
			}
			first := int(entries[1]) // the first destination's section is stored[:first]
			lies := map[string]func(b []byte){
				// The first record's neighbour, stored raw, moved past |V|.
				"a neighbour past |V|": func(b []byte) { binary.LittleEndian.PutUint32(b, n+5) },
			}
			if codec == blockstore.CodecVarint {
				lies = map[string]func(b []byte){
					// A one-byte gap from −1 to 126: its neighbour.
					"a gap past |V|": func(b []byte) { b[0] = 0x7f },
					// Continuation bits to the section's end.
					"an unterminated varint": func(b []byte) {
						for k := range first {
							b[k] = 0xff
						}
					},
				}
			}
			for what, lie := range lies {
				crafted := append([]byte(nil), stored...)
				lie(crafted)
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
}
