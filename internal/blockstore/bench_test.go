package blockstore

import (
	"math/rand"
	"testing"

	"husgraph/internal/gen"
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

func BenchmarkBuildRaw(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, 8); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkDecodeInBlock times the decode alone — every non-empty section
// of one in-block's stored payload through appendSection into a presized
// buffer, no read and no CRC — and reports ns per decoded byte: the measured
// counterpart of core's varintDecodeNsPerByte = 1.5 and rleDecodeNsPerByte =
// 0.6 (ROADMAP 2c calibrates against it).
func BenchmarkDecodeInBlock(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	const p = 8
	layout := NewLayout(g.NumVertices, p)
	// In-block (0,0) — R-MAT's densest — bucketed the way Build does.
	sorted := g.Clone()
	sorted.SortByDst()
	var recs []Rec
	perVertex := make([]uint32, layout.Size(0))
	for _, e := range sorted.Edges {
		if layout.IntervalOf(e.Src) == 0 && layout.IntervalOf(e.Dst) == 0 {
			recs = append(recs, Rec{Nbr: e.Src, Weight: 1})
			perVertex[layout.Local(e.Dst)]++
		}
	}
	for _, c := range []Codec{CodecVarint, CodecRLE} {
		b.Run(c.String(), func(b *testing.B) {
			var payload []byte
			idx := make([]uint32, 0, len(perVertex)+1)
			pos := 0
			for _, cnt := range perVertex {
				idx = append(idx, uint32(len(payload)))
				payload = encodeVertexRecsCodec(payload, recs[pos:pos+int(cnt)], c, false, nil)
				pos += int(cnt)
			}
			idx = append(idx, uint32(len(payload)))
			dst := make([]byte, 0, len(recs)*RawRecordBytes(false))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := dst[:0]
				for k := 0; k+1 < len(idx); k++ {
					if idx[k] == idx[k+1] {
						continue
					}
					var err error
					if out, err = appendSection(out, payload[idx[k]:idx[k+1]], c, false); err != nil {
						b.Fatal(err)
					}
				}
				if len(out) != cap(dst) {
					b.Fatalf("decoded %d bytes, want %d", len(out), cap(dst))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cap(dst)), "ns/decoded-byte")
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
				pf := ds.NewPrefetcher(sched, depth, nil)
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
// column sweep: the first pass misses and promotes, later passes are served
// from memory.
func BenchmarkBlockCacheSweep(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	sched := inBlockSchedule(ds)
	cache := lruCache(256 << 20)
	warm := ds.NewPrefetcher(sched, 2, cache)
	for range sched {
		res := warm.Next()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		res.Release()
	}
	warm.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := ds.NewPrefetcher(sched, 2, cache)
		for range sched {
			res := pf.Next()
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			res.Release()
		}
		pf.Close()
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(st.HitRate(), "hit-rate")
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
