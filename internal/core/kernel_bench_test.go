package core

import (
	"math/rand"
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
// fallback against the sum and min kernels, each with every source active
// and with one source short of that — the smallest frontier that still has
// to probe. ns/edge is the layer-level number for the next kernel change.
func BenchmarkEdgeKernel(b *testing.B) {
	n := 1 << 18
	g := gen.ChungLu(n, 10*n, 2.2, rand.New(rand.NewSource(1)))
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, blockstore.Options{P: 1})
	if err != nil {
		b.Fatal(err)
	}
	sc := blockstore.GetScratch()
	defer blockstore.PutScratch(sc)
	payload, byteIdx, err := ds.LoadInBlockBytesScratch(0, 0, sc)
	if err != nil {
		b.Fatal(err)
	}
	edges := float64(len(payload) / blockstore.RawRecordBytes(false))

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
	frontiers := []struct {
		name string
		f    *bitset.Frontier
	}{{"allactive", bitset.FullFrontier(n)}, {"probe", probe}}

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
					k.rawBlock(d, payload, byteIdx)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*edges), "ns/edge")
			})
		}
	}
}
