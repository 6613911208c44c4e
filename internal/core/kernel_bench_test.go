package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// benchRank is PageRank's edge work without the algos package: the message
// is the same two loads and a divide, the combine the same sum. reduce
// selects what it declares, so one program drives all three kernel families.
type benchRank struct {
	testCount
	deg    []int32
	reduce ReduceOp
}

func (p *benchRank) Message(src graph.VertexID, srcVal float64, _ float32) float64 {
	return srcVal / float64(p.deg[src])
}

func (p *benchRank) Reduce() ReduceOp { return p.reduce }

// BenchmarkEdgeKernel times the COP edge kernels alone on one Chung–Lu
// in-block (2¹⁸ sources, ~2.4 M edges, one thread, no I/O): the interface
// fallback against the sum and min kernels, each with every source active,
// with one source short of that (/probe: the largest frontier that still
// holds an inactive source), and with a seeded 1 %, 20 % or 50 % of the
// sources active (/active=…). The sum and min kernels run one loop for
// every frontier — an inactive source's table entry is the reduction's
// identity — so their legs differ only in which messages they fold; the
// fallback tests the frontier per edge. ns/edge is the layer-level number
// for the next kernel change. At P = 1 a store's one in-block is 4 × 4
// tiles of CodecCOO records (intervals of 2¹⁸), so these legs time the
// record kernels through runCOP's tile loop; BenchmarkCOPScan times the
// layouts side by side. Read them at -cpu 1.
func BenchmarkEdgeKernel(b *testing.B) {
	n := 1 << 18
	g := gen.ChungLu(n, 10*n, 2.2, rand.New(rand.NewSource(1)))
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: 1})
	if err != nil {
		b.Fatal(err)
	}
	payload, err := ds.LoadInBlockScratch(0, 0, new(blockstore.Scratch)) // the view keeps the scratch alive
	if err != nil {
		b.Fatal(err)
	}
	if tiles, err := ds.InTiles(0, 0, payload, nil); err != nil || len(tiles) != 16 {
		b.Fatalf("the in-block is %d tiles (%v), want 16", len(tiles), err)
	}
	edges := float64(ds.BlockEdgeCount[0][0])

	s := make([]float64, n)
	for v := range s {
		s[v] = 1 / float64(n)
	}
	d := make([]float64, n)
	probe := bitset.NewFrontier(n)
	for v := 0; v < n; v++ {
		if v != n/2 {
			probe.Add(v)
		}
	}
	type namedFrontier struct {
		name string
		f    *bitset.Frontier
	}
	frontiers := []namedFrontier{{"allactive", bitset.FullFrontier(n)}, {"probe", probe}}
	for _, pct := range []int{1, 20, 50} {
		f := bitset.NewFrontier(n)
		rng := rand.New(rand.NewSource(int64(pct)))
		for v := 0; v < n; v++ {
			if rng.Intn(100) < pct {
				f.Add(v)
			}
		}
		frontiers = append(frontiers, namedFrontier{fmt.Sprintf("active=%d", pct), f})
	}

	for _, kern := range []struct {
		name string
		op   ReduceOp
	}{{"fallback", ReduceCustom}, {"sum", ReduceSum}, {"min", ReduceMin}} {
		for _, fr := range frontiers {
			b.Run(kern.name+"/"+fr.name, func(b *testing.B) {
				e := New(ds, Config{Threads: 1})
				k := &e.cop
				k.begin(e, &benchRank{deg: ds.OutDegrees, reduce: kern.op}, s, fr.f)
				defer k.end()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.foldTiles(0, 0, d, payload); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*edges), "ns/edge")
			})
		}
	}
}

// BenchmarkCOPScan folds every in-block of perfbench's PageRank graph —
// Chung–Lu α 2.2, 2¹⁸ vertices, P = 16 — on one thread, column by column
// as a COP sweep does, with the blocks already in memory: the edge loop of
// a scan and nothing else. Each leg reports ns/edge and B/edge, the bytes a
// scan reads per edge (payload, frames excluded). /coo folds the blocks as
// a raw store keeps them at this P, one 4-byte (destination, source) record
// per edge; /gv as a mixed store of the same graph keeps them, group-varint
// key deltas (CodecVarint) where that is smaller and the records otherwise;
// /tiled the same graph in a raw store at P = 2, whose intervals of 2¹⁷
// vertices cut each in-block into 2 × 2 tiles folded through runCOP's tile
// loop (foldTiles); each with the sum and the min kernel. /floor is a flat
// gather-sum over the same sources, no destination at all: what reading the
// messages costs. DESIGN.md §4f and §4m have the numbers; read them at
// -cpu 1.
func BenchmarkCOPScan(b *testing.B) {
	const n, p = 1 << 18, 16
	g := gen.ChungLu(n, 10*n, 2.2, rand.New(rand.NewSource(1)))
	build := func(opts blockstore.Options) *blockstore.DualStore {
		ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	ds, mixed, tiled := build(blockstore.Options{P: p}), build(blockstore.Options{P: p, Format: blockstore.FormatMixed}), build(blockstore.Options{P: 2})
	type block struct {
		i, j     int // the in-block (j, i): destination interval i
		coo, gv  []byte
		gvCodec  blockstore.Codec
		srcs     []uint32 // global sources, for the floor
		src, dst [2]int   // source and destination interval bounds
	}
	load := func(ds *blockstore.DualStore, j, i int) []byte {
		payload, err := ds.LoadInBlockScratch(j, i, new(blockstore.Scratch))
		if err != nil {
			b.Fatal(err)
		}
		return payload
	}
	var blocks, tiledBlocks []block
	var edges, gvBytes, tiledBytes float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if ds.InCodec(j, i) != blockstore.CodecCOO {
				b.Fatalf("in-block (%d,%d) of a raw store at P = %d is %v", j, i, p, ds.InCodec(j, i))
			}
			blk := block{i: i, j: j, coo: load(ds, j, i), gv: load(mixed, j, i), gvCodec: mixed.InCodec(j, i)}
			blk.dst[0], blk.dst[1] = ds.Layout.Bounds(i)
			blk.src[0], blk.src[1] = ds.Layout.Bounds(j)
			for off := 0; off < len(blk.coo); off += 4 {
				blk.srcs = append(blk.srcs, uint32(blk.src[0])+binary.LittleEndian.Uint32(blk.coo[off:])&0xffff)
			}
			edges += float64(len(blk.coo) / 4)
			gvBytes += float64(len(blk.gv))
			blocks = append(blocks, blk)
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			blk := block{i: i, j: j, coo: load(tiled, j, i)}
			blk.dst[0], blk.dst[1] = tiled.Layout.Bounds(i)
			if tiles, err := tiled.InTiles(j, i, blk.coo, nil); err != nil || len(tiles) != 4 {
				b.Fatalf("in-block (%d,%d) at P = 2 is %d tiles (%v), want 4", j, i, len(tiles), err)
			}
			tiledBytes += float64(len(blk.coo))
			tiledBlocks = append(tiledBlocks, blk)
		}
	}
	s := make([]float64, n)
	for v := range s {
		s[v] = 1 / float64(n)
	}
	d := make([]float64, n)
	for _, kern := range []struct {
		name string
		op   ReduceOp
	}{{"sum", ReduceSum}, {"min", ReduceMin}} {
		for _, layout := range []string{"coo", "gv", "tiled"} {
			b.Run(layout+"/"+kern.name, func(b *testing.B) {
				store := ds
				if layout == "tiled" {
					store = tiled
				}
				e := New(store, Config{Threads: 1})
				k := &e.cop
				k.begin(e, &benchRank{deg: ds.OutDegrees, reduce: kern.op}, s, bitset.FullFrontier(n))
				defer k.end()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					if layout == "tiled" {
						for _, blk := range tiledBlocks {
							if err := e.foldTiles(blk.j, blk.i, d[blk.dst[0]:blk.dst[1]], blk.coo); err != nil {
								b.Fatal(err)
							}
						}
						continue
					}
					for _, blk := range blocks {
						dst := d[blk.dst[0]:blk.dst[1]]
						var bad int
						if layout == "coo" || blk.gvCodec == blockstore.CodecCOO {
							bad = k.records(dst, blk.src[0], blk.src[1], blk.coo)
						} else {
							bad = k.varint(dst, blk.src[0], blk.src[1], blk.gv)
						}
						if bad >= 0 {
							b.Fatal("the fold refused a block the store built")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*edges), "ns/edge")
				perEdge := map[string]float64{"coo": 4, "gv": gvBytes / edges, "tiled": tiledBytes / edges}[layout]
				b.ReportMetric(perEdge, "B/edge")
			})
		}
	}
	b.Run("floor", func(b *testing.B) {
		var sum float64
		for it := 0; it < b.N; it++ {
			for _, blk := range blocks {
				for _, u := range blk.srcs {
					sum += s[u]
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*edges), "ns/edge")
		b.ReportMetric(4, "B/edge")
		if sum < 0 {
			b.Fatal(sum)
		}
	})
}

// BenchmarkROPSparseTail times the fixed cost of a sparse ROP iteration:
// BFS down four 250-vertex paths that share one interval of a 2¹⁸-vertex,
// P = 16 graph, so after the root every iteration has a 4-vertex frontier
// in one active row and pushes four edges. What an iteration then costs is
// what the engine pays per barrier whatever the frontier: the row's 16
// out-index loads, the plan, the predictor and the frontier walks — and
// nothing that grows with |V|. Run drives it, so the run loop's own
// per-iteration work (initializing D) is in the number; one MemStore run is
// 251 iterations, and its Init (two |V|-sized arrays) is spread over them.
// Each leg runs at one prefetch depth: inline (0), and read ahead by two
// workers, which then issue every read of the iteration. The wide legs run
// the same graph at P = 2, whose intervals of 2¹⁷ vertices take 32-bit
// out-block records and two out-index loads a row.
func BenchmarkROPSparseTail(b *testing.B) {
	const n, paths, length = 1 << 18, 4, 250
	root := n - paths*length - 1
	rng := rand.New(rand.NewSource(1))
	g := graph.New(n)
	for i := 0; i < 4*n; i++ { // background: keeps every block of the row nonempty
		g.AddEdge(graph.VertexID(rng.Intn(root)), graph.VertexID(rng.Intn(root)))
	}
	for k := 0; k < paths; k++ {
		prev := root
		for v := root + 1 + k*length; v <= root+(k+1)*length; v++ {
			g.AddEdge(graph.VertexID(prev), graph.VertexID(v))
			prev = v
		}
	}
	g.Dedup()
	prog := declared{sparseStart{members: []int{root}}, ReduceMin} // hop-count BFS from root, as algos.BFS declares it
	for _, leg := range []struct {
		name string
		p    int
	}{{"", 16}, {"wide/", 2}} {
		ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: leg.p})
		if err != nil {
			b.Fatal(err)
		}
		for _, depth := range []int{0, 2} {
			b.Run(fmt.Sprintf("%sdepth=%d", leg.name, depth), func(b *testing.B) {
				run := func() int {
					res, err := New(ds, Config{Model: ModelROP, Threads: 1, PrefetchDepth: depth}).Run(prog)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged || res.Values[n-1] != length {
						b.Fatalf("converged=%v, dist[%d] = %v, want %d", res.Converged, n-1, res.Values[n-1], length)
					}
					return res.NumIterations()
				}
				run()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				iters := 0
				for i := 0; i < b.N; i++ {
					iters += run()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(iters), "allocs/iter")
			})
		}
	}
}

// BenchmarkColumnPass times COP's column pass alone over one 2¹⁴-vertex
// interval — a P = 16 interval of the perfbench graphs — for a
// PageRank-shaped program with every source active: per vertex an Apply, the
// write of S, the activation and the table entry's Message (two loads and a
// divide). The pass splits across -cpu threads in chunks of whole frontier
// words. ns/vertex is the layer-level number; DESIGN.md §4i has it at -cpu
// 1,2 against the two loops it replaced.
func BenchmarkColumnPass(b *testing.B) {
	const n = 1 << 14
	g := gen.ChungLu(n, 10*n, 2.2, rand.New(rand.NewSource(1)))
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: 1})
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds, Config{Threads: runtime.GOMAXPROCS(0)})
	s, d := make([]float64, n), make([]float64, n)
	for v := range s {
		s[v], d[v] = 1/float64(n), 1/float64(n)
	}
	k := &e.cop
	k.begin(e, &benchRank{deg: ds.OutDegrees, reduce: ReduceSum}, s, bitset.FullFrontier(n))
	defer k.end()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.pass(0, n, d, bitset.NewFrontier(n))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/vertex")
}
