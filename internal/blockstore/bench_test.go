package blockstore

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func benchGraphStore(b *testing.B, format Format, weighted bool) *DualStore {
	b.Helper()
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	gen.AssignUniformWeights(g, 1, 5, rand.New(rand.NewSource(2)))
	ds, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g,
		Options{P: 8, Format: format, Weighted: weighted})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkBuildRaw runs the one build pass from its two edge sources over
// the same graph: BuildOpts from the resident edge list, BuildStreamingOpts from
// its WriteBinary bytes at the default spill budget, and BuildOpts from the
// edge list shuffled, whose vertex runs arrive out of neighbour order and are
// sorted; and BuildOpts of a mixed store, whose in-blocks are also encoded
// as group-varint key deltas (appendGV). ns/edge is the time per input edge.
func BenchmarkBuildRaw(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		b.Fatal(err)
	}
	shuffled := g.Clone()
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled.Edges), func(x, y int) {
		shuffled.Edges[x], shuffled.Edges[y] = shuffled.Edges[y], shuffled.Edges[x]
	})
	leg := func(name string, build func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Edges)), "ns/edge")
		})
	}
	leg("resident", func() error {
		_, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, Options{P: 8, Weighted: true})
		return err
	})
	leg("streaming", func() error {
		_, err := BuildStreamingOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), bytes.NewReader(bin.Bytes()), Options{P: 8, Format: FormatRaw, Weighted: true}, 0)
		return err
	})
	leg("shuffled", func() error {
		_, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), shuffled, Options{P: 8, Weighted: true})
		return err
	})
	leg("mixed", func() error {
		_, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, Options{P: 8, Format: FormatMixed, Weighted: true})
		return err
	})
}

// BenchmarkLoadInBlockBytesScratch is the one in-block loader over a
// stored-raw block and over its mixed twin: read, verify, and for the mixed
// store decode, into a reused Scratch.
func BenchmarkLoadInBlockBytesScratch(b *testing.B) {
	for _, format := range []Format{FormatRaw, FormatMixed} {
		b.Run(format.String(), func(b *testing.B) {
			ds := benchGraphStore(b, format, true)
			sc := &Scratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.LoadInBlockBytesScratch(i%8, (i/8)%8, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadOutIndexScratch is ROP's per-block index load, through a
// reused Scratch, cycling over all P² out-indices of a 5-page index each —
// 2¹⁶ vertices at P = 4, the interval of perfbench's 2¹⁸-vertex, P = 16
// stores: whole (blob: the framed read and one CRC over 17 472 bytes; the
// index is the verified read buffer itself) and as the page span of an
// extent over 1, 2 and all 5 pages (one range read, a CRC per page). Every
// format stores out-indices raw, so one store covers them all.
func BenchmarkLoadOutIndexScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New(1 << 16)
	for k := 0; k < 1<<19; k++ {
		g.AddEdge(graph.VertexID(rng.Intn(1<<16)), graph.VertexID(rng.Intn(1<<16)))
	}
	ds, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, Options{P: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		x    Extent // the zero Extent loads the blob
	}{
		{"pages/blob", Extent{}},
		{"pages/span=1", Extent{First: 100, End: 101}},
		{"pages/span=2", Extent{First: 1000, End: 4000}},
		{"pages/span=5", Extent{First: 0, End: 1 << 14}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			sc := &Scratch{}
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				if leg.x.Live() {
					_, _, err = ds.LoadOutIndexSpanScratch(i%4, (i/4)%4, leg.x, sc)
				} else {
					_, err = ds.LoadOutIndexScratch(i%4, (i/4)%4, sc)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeInBlock times the decode alone — one CodecVarint in-block
// through AppendGV into a presized buffer, no read and no CRC — and reports
// ns per decoded byte. It is the decoder the COP Combine fallback runs on a
// compressed tile before it folds the records (core's copKernel.varint);
// the specialised kernels fold the same layout without the records (core's
// BenchmarkCOPScan /gv legs).
func BenchmarkDecodeInBlock(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	const p = 8
	layout := NewLayout(g.NumVertices, p)
	// In-block (0,0) — R-MAT's densest — as the keys the build pass gives a
	// column, in (destination, source) order; interval 0 starts at vertex 0.
	var recs []Rec
	for _, e := range g.Edges {
		if layout.IntervalOf(e.Src) == 0 && layout.IntervalOf(e.Dst) == 0 {
			recs = append(recs, Rec{Nbr: e.Dst<<16 | e.Src})
		}
	}
	slices.SortFunc(recs, func(x, y Rec) int { return cmp.Compare(x.Nbr, y.Nbr) })
	const c = CodecVarint // the sub-benchmark keeps the name the docs cite
	b.Run(c.String(), func(b *testing.B) {
		payload := appendGV(nil, recs, false)
		dst := make([]byte, 0, len(recs)*RawRecordBytes(false))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := AppendGV(dst[:0], payload, false)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != cap(dst) {
				b.Fatalf("decoded %d bytes, want %d", len(out), cap(dst))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cap(dst)), "ns/decoded-byte")
	})
}

// BenchmarkInBlockSweep is what one COP iteration asks of the loader on the
// measured benchmark's graph shape (perfbench: Chung–Lu α 2.2, 2¹⁸ vertices,
// P = 16, unweighted): all P² in-blocks — read and verify, with no index to
// validate at this P — through one Scratch, off a MemStore. ms/sweep is the
// number to compare; the parent of the sparse in-index read 11.3 (raw) and
// 60–67 (mixed) here.
func BenchmarkInBlockSweep(b *testing.B) {
	const n, p = 1 << 18, 16
	g := gen.ChungLu(n, 10*n, 2.2, rand.New(rand.NewSource(1)))
	for _, format := range []Format{FormatRaw, FormatMixed} {
		b.Run(format.String(), func(b *testing.B) {
			ds, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, Options{P: p, Format: format})
			if err != nil {
				b.Fatal(err)
			}
			sc := &Scratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < p; j++ {
					for i := 0; i < p; i++ {
						if _, _, err := ds.LoadInBlockBytesScratch(i, j, sc); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/sweep")
		})
	}
}

// BenchmarkPrefetchColumnSweep measures a full column-major in-block sweep
// (COP's traversal) through the prefetch pipeline at increasing read-ahead
// depths, against the synchronous depth-0 baseline.
func BenchmarkPrefetchColumnSweep(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	sched := inBlockSchedule(ds)
	for _, depth := range []int{0, 1, 2, 4} {
		b.Run("depth="+itoaBench(depth), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf := ds.NewPrefetcher(sched, nil, nil, depth, nil)
				for range sched {
					res := pf.Next()
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					res.Release()
				}
				pf.Close()
			}
		})
	}
}

// BenchmarkBlockCacheSweep measures the hot-block cache on a repeated
// column sweep, once with room for the whole sweep — the first pass misses
// and copies, later passes are served from memory — and once with room for
// half its bytes, where the admission rule keeps the blocks it took first:
// hit-rate is ≈ 0.5 there, where LRU's would be 0.
func BenchmarkBlockCacheSweep(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	sched := inBlockSchedule(ds)
	sizer := ds.NewPrefetcher(nil, nil, nil, 0, nil)
	var sweep int64
	for _, key := range sched {
		sweep += sizer.entryBytes(key)
	}
	for _, leg := range []struct {
		name   string
		budget int64
	}{{"fits", 256 << 20}, {"half", sweep / 2}} {
		b.Run(leg.name, func(b *testing.B) {
			var hitBytes int64
			cache := NewBlockCache(leg.budget)
			sweepOnce := func() {
				pf := ds.NewPrefetcher(sched, nil, nil, 2, cache)
				for range sched {
					res := pf.Next()
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if res.Cached {
						hitBytes += ds.InBlockBytes[res.Key.I][res.Key.J]
					}
					res.Release()
				}
				pf.Close()
			}
			sweepOnce()
			hitBytes = 0
			warm := cache.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepOnce()
			}
			b.StopTimer()
			b.ReportMetric(cache.Stats().Sub(warm).HitRate(), "hit-rate")
			b.ReportMetric(float64(hitBytes)/float64(sweep)/float64(b.N), "hit-bytes-share")
		})
	}
}

func itoaBench(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
