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

// TestCraftedInBlockIsAnError: a correctly framed in-block whose tiles or
// records lie passes every whole-read check (CRC, stored size), so only COP,
// which cuts the block into tiles and folds them, can refuse it. Each lie
// must end the run with a storage.ErrCorrupt-class *core.IterError of
// iteration 0: before the kernels tested their neighbours, a record past
// |V| panicked "index out of range" inside the fold (in a chunk worker at
// Threads > 1, killing the process). Every lie runs at 1 and 4 threads,
// through one engine and two shards, read inline and through a prefetching
// cache that keeps the block as stored; each program picks another kernel —
// BFS the probing min, WCC the all-active min, PageRank the all-active sum,
// SSSP on a weighted store the Combine fallback — and every goroutine must
// be gone afterwards (leaktest.Main). The raw store's intervals are one
// vertex wider than a tile: the ring's 64 vertices, spread over intervals
// of MaxCOOInterval+1, so in-block (0,1) is 2 × 2 tiles whose records all
// lie in tile (0,0), the others a single vertex wide on one side or both
// and empty. Its lies are told in the tile directory: ends that fall, a
// last end short of the payload, a tile that is not whole records, and a
// record moved into tile (0,1), one source wide, past whose edge its source
// lies. The mixed store's in-block (0,1) holds every edge from interval 0
// to interval 1 of 256 vertices, 4 096 keys in four segments of
// group-varint deltas, and its lies break each rule of the layout once: a
// segment header counting more records or bytes than the segment holds, a
// tag whose deltas run past the segment, a delta carrying the key past 2³²,
// a destination or a source past its interval, a segment starting below the
// key before it, and a segment's last key climbing onto the next segment's
// first destination — where the block splits at 4 threads, so the chunk
// holding the lie must stop before writing the accumulator the next chunk
// owns: under -race a write from both is a reported race.
func TestCraftedInBlockIsAnError(t *testing.T) {
	raw := craftedGraph(craftedP*(blockstore.MaxCOOInterval+1), 4100)
	craftedLies(t, blockstore.FormatRaw, raw, func(stored []byte, codec blockstore.Codec, step int) map[string]func(b []byte) {
		end := func(b []byte, t int) uint32 { return binary.LittleEndian.Uint32(b[4*t:]) }
		setEnd := func(b []byte, t int, e uint32) { binary.LittleEndian.PutUint32(b[4*t:], e) }
		if n := uint32(len(stored)); codec != blockstore.CodecCOO || end(stored, 0) != n || end(stored, 3) != n || n < 16+2*uint32(step) {
			t.Fatalf("raw: in-block (0,1) is %v in %d bytes, tile (0,0) ending at %d; want CodecCOO, two or more records, all in tile (0,0)", codec, n, end(stored, 0))
		}
		return map[string]func(b []byte){
			"a tile directory whose ends fall": func(b []byte) { setEnd(b, 1, end(b, 0)-uint32(step)) },
			"a last tile end short of the payload": func(b []byte) {
				for t := 0; t < 4; t++ {
					setEnd(b, t, uint32(len(b)-step))
				}
			},
			"a CodecCOO tile that is not whole records": func(b []byte) { setEnd(b, 0, end(b, 0)-2) },
			"a source past a partial tile's edge":       func(b []byte) { setEnd(b, 0, end(b, 0)-uint32(step)) },
		}
	})

	const n = 4 * 64
	dense := graph.New(n)
	for u := 0; u < 64; u++ {
		for v := 64; v < 128; v++ {
			dense.AddWeightedEdge(graph.VertexID(u), graph.VertexID(v), float32(1+(u+v)%3))
		}
	}
	for v := 0; v < n; v++ {
		dense.AddWeightedEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1)
	}
	craftedLies(t, blockstore.FormatMixed, dense, func(stored []byte, codec blockstore.Codec, step int) map[string]func(b []byte) {
		weighted := step == blockstore.RawRecordBytes(true)
		segs := gvSegments(t, stored, weighted)
		if codec != blockstore.CodecVarint || len(segs) != 4 {
			t.Fatalf("mixed: in-block (0,1) is %v with %d segments; want CodecVarint and four", codec, len(segs))
		}
		for k, sg := range segs {
			if sg.Records != blockstore.GVSegmentRecords || stored[sg.keys+sg.tag(stored, 0)] != byte(map[bool]int{true: 0, false: 2}[k == 0]) {
				t.Fatalf("mixed: segment %d holds %d records, first tag %#x; want %d, a 1-byte first key for segment 0 and 3-byte ones after", k, sg.Records, stored[sg.keys], blockstore.GVSegmentRecords)
			}
		}
		// lastDst is the offset of the tag of the group with which the
		// destination 16k+15 of segment k starts, its first delta 2 bytes.
		lastDst := func(k int) int { return segs[k].keys + segs[k].tag(stored, (blockstore.GVSegmentRecords-64)/4) }
		return map[string]func(b []byte){
			"a segment header counting more records than it holds": func(b []byte) { b[segs[0].off]++ },
			"a segment header counting more bytes than it holds": func(b []byte) {
				at := segs[3].off + segs[3].countBytes
				if b[at]&0x7f == 0x7f {
					t.Fatalf("segment 3's key byte count %#x would lengthen", b[at])
				}
				b[at]++
			},
			"a tag whose deltas run past its segment": func(b []byte) {
				b[segs[0].keys+segs[0].tag(b, blockstore.GVSegmentRecords/4-1)] = 0xff
			},
			"a delta carrying the key past 2³²": func(b []byte) {
				// Segment 1's first group: its 3-byte first key, then a
				// 4-byte delta of 2³² − 1.
				at := segs[1].keys
				b[at] = 0x0e
				copy(b[at+4:], []byte{0xff, 0xff, 0xff, 0xff})
			},
			"a destination past its interval": func(b []byte) { b[segs[3].keys+3] = 0x40 }, // segment 3's first key, destination 48 → 64
			"a source past its interval":      func(b []byte) { b[segs[3].keys+segs[3].keyBytes-1]++ },
			"a segment starting below the key before it": func(b []byte) {
				b[segs[2].keys+3] = 0x10 // destination 32 → 16
			},
			"a segment climbing onto the next one's first destination": func(b []byte) {
				// Destination 31's first delta takes its third byte from
				// the next delta: 0x01ffc1 carries the key to (32, 0).
				at := lastDst(1)
				if b[at] != 0x01 || b[at+1] != 0xc1 || b[at+2] != 0xff || b[at+3] != 0x01 {
					t.Fatalf("segment 1's last destination starts % x", b[at:at+4])
				}
				b[at] = 0x02
			},
		}
	})
}

// gvSegment is where one segment of a CodecVarint block lies in its
// payload: its header at off, countBytes long — the record count — then its
// key byte count, and its keyBytes key bytes at keys.
type gvSegment struct {
	blockstore.GVSegment
	off, countBytes, keys, keyBytes int
}

// tag returns the offset in the segment's key bytes of group g's tag.
func (s gvSegment) tag(payload []byte, g int) int {
	at := 0
	for ; g > 0; g-- {
		tag := payload[s.keys+at]
		at += 1 + int(tag&3) + int(tag>>2&3) + int(tag>>4&3) + int(tag>>6) + 4
	}
	return at
}

// gvSegments lists the segments of a CodecVarint block.
func gvSegments(t *testing.T, payload []byte, weighted bool) []gvSegment {
	t.Helper()
	var segs []gvSegment
	for off := 0; off < len(payload); {
		seg, err := blockstore.ParseGVSegment(payload, off, weighted)
		if err != nil {
			t.Fatal(err)
		}
		_, count := binary.Uvarint(payload[off:])
		segs = append(segs, gvSegment{GVSegment: seg, off: off, countBytes: count, keys: seg.End - len(seg.Weights) - len(seg.Keys), keyBytes: len(seg.Keys)})
		off = seg.End
	}
	return segs
}

// TestCraftedCOORecordIsAnError: a raw store over intervals that fit 16
// bits keeps its in-blocks as one tile of (destination, source) records, so
// nothing but the COP kernel checks a record. Each rule it
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
	craftedLies(t, blockstore.FormatRaw, craftedGraph(craftedVertices, 1), func(stored []byte, codec blockstore.Codec, step int) map[string]func(b []byte) {
		recs := len(stored) / step
		if codec != blockstore.CodecCOO || recs != 16 {
			t.Fatalf("in-block (0,1) is %v with %d records; want CodecCOO and sixteen", codec, recs)
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

// The crafted ring: craftedVertices vertices in craftedP intervals, each
// vertex v joined to v+1 and v+17.
const craftedVertices, craftedP = 64, 4

// craftedGraph is the crafted ring with vertex v at ID v·stride of n.
func craftedGraph(n, stride int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < craftedVertices; v++ {
		id := func(u int) graph.VertexID { return graph.VertexID(u % craftedVertices * stride) }
		g.AddWeightedEdge(id(v), id(v+1), 1)
		g.AddWeightedEdge(id(v), id(v+17), 2)
	}
	return g
}

// craftedLies builds g, symmetrized, over craftedP intervals in format for
// each program, hands in-block (0,1) as loaded, its codec and its record
// size to lies, and runs every lie it returns, written over the block's
// bytes (nil: the block cut short by two bytes), through every
// configuration the tests above name.
func craftedLies(t *testing.T, format blockstore.Format, g *graph.Graph, lies func(stored []byte, codec blockstore.Codec, step int) map[string]func(b []byte)) {
	t.Helper()
	const name = "ib/0.1"
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
		stored, err := built.LoadInBlockScratch(0, 1, new(blockstore.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		for what, lie := range lies(stored, built.InCodec(0, 1), blockstore.RawRecordBytes(pr.weighted)) {
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
