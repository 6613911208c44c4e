package husgraph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// TestBenchDatasetsSane resolves every dataset name the evaluation harness
// accepts through gen.ByName and checks that it builds a valid graph whose
// out-CSR covers every edge.
func TestBenchDatasetsSane(t *testing.T) {
	for _, name := range gen.Names() {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.BuildCached()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if csr := graph.BuildOutCSR(g); csr.Offsets[csr.NumVertices] != int64(g.NumEdges()) {
			t.Fatalf("%s: out-CSR holds %d edges, want %d", name, csr.Offsets[csr.NumVertices], g.NumEdges())
		}
	}
}

// perfbenchGraph regenerates, as perfbench does at its default seed 1 and
// scale 18, its PageRank graph (Chung–Lu) or its BFS graph (a web graph with
// tendrils).
func perfbenchGraph(pagerank bool) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 18
	if pagerank {
		return gen.ChungLu(n, 10*n, 2.2, rng)
	}
	coreN := n - n/20
	g := gen.Web(coreN, 8*n, gen.WebParams{Alpha: 2.2, JumpFrac: 0.01}, rng)
	g.NumVertices = n
	gen.AddTendrils(g, coreN, 90, rng)
	return g
}

// TestNarrowOutIndexMatchesEdges: an out-index is a record offset per 64
// sources and a degree byte per source, a degree of 255 or more escaping to
// the meta. Over a frontier of every vertex, each nonempty block's ROP
// window entry — the index read as the pages its extent spans, every
// section worked out and checked, the record runs read — must hold one
// section per source with an edge in the block, holding exactly its edges
// there, on every registry dataset at P = 2 and 8 and on perfbench's two
// graphs at P = 16. An empty block has no out-index blob. The social
// analogues escape at P = 2, and perfbench's Chung–Lu graph at P = 16.
func TestNarrowOutIndexMatchesEdges(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		p    int
	}
	var inputs []input
	for _, name := range gen.Names() {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			inputs = append(inputs, input{name, d.BuildCached(), p})
		}
	}
	inputs = append(inputs, input{"perfbench-pagerank", perfbenchGraph(true), 16}, input{"perfbench-bfs", perfbenchGraph(false), 16})
	escapes := map[string]int{}
	for _, in := range inputs {
		what := fmt.Sprintf("%s/P=%d", in.name, in.p)
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		ds, err := blockstore.BuildOpts(mem, in.g, blockstore.Options{P: in.p})
		if err != nil {
			t.Fatal(err)
		}
		csr := graph.BuildOutCSR(in.g)
		l := ds.Layout
		all := bitset.NewFrontier(l.NumVertices)
		for v := 0; v < l.NumVertices; v++ {
			all.Add(v)
		}
		extents := make([]blockstore.Extent, l.P*l.P)
		var plan []blockstore.BlockKey
		for i := 0; i < l.P; i++ {
			for j := 0; j < l.P; j++ {
				escapes[what] += len(ds.OutIndexEscapes[i][j])
				if ds.BlockEdgeCount[i][j] == 0 {
					if _, err := mem.ReadAll(fmt.Sprintf("oi/%d.%d", i, j)); ds.OutIndexBytes(i, j) != 0 || !errors.Is(err, storage.ErrNotFound) {
						t.Fatalf("%s: empty block (%d,%d): out-index of %d bytes, blob read %v", what, i, j, ds.OutIndexBytes(i, j), err)
					}
					continue
				}
				extents[i*l.P+j] = ds.Extent(i, j, all)
				plan = append(plan, blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
			}
		}
		pf := ds.NewPrefetcher(plan, extents, all, 2, nil)
		step := ds.OutRecordBytes()
		for _, key := range plan {
			res := pf.Take(key)
			if res.Err != nil {
				pf.Close()
				t.Fatalf("%s: block (%d,%d): %v", what, key.I, key.J, res.Err)
			}
			lo, hi := l.Bounds(key.I)
			jlo, jhi := l.Bounds(key.J)
			secs := res.Sections
			for v := lo; v < hi; v++ {
				var want []int
				for _, d := range csr.Targets[csr.Offsets[v]:csr.Offsets[v+1]] {
					if int(d) >= jlo && int(d) < jhi {
						want = append(want, int(d))
					}
				}
				if len(want) == 0 {
					continue
				}
				if len(secs) == 0 || int(secs[0].V) != v {
					pf.Close()
					t.Fatalf("%s: block (%d,%d): no section for source %d, which has %d edges in it", what, key.I, key.J, v, len(want))
				}
				var got []int
				for off := 0; off < len(secs[0].Recs); off += step {
					local, _ := blockstore.OutRec(secs[0].Recs, off, step, false)
					got = append(got, jlo+int(local))
				}
				secs = secs[1:]
				slices.Sort(want)
				if !slices.Equal(got, want) {
					pf.Close()
					t.Fatalf("%s: block (%d,%d) source %d: section holds %v, want %v", what, key.I, key.J, v, got, want)
				}
			}
			if len(secs) != 0 {
				pf.Close()
				t.Fatalf("%s: block (%d,%d): %d sections for sources without an edge in it", what, key.I, key.J, len(secs))
			}
			res.Release()
		}
		pf.Close()
	}
	t.Logf("out-index escapes per input: %v", escapes)
	for _, what := range []string{"twitter-sim/P=2", "perfbench-pagerank/P=16"} {
		if escapes[what] == 0 {
			t.Errorf("%s: no out-index escapes; the test no longer covers them (escapes per input: %v)", what, escapes)
		}
	}
}
