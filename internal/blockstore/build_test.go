package blockstore

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// MultigraphForTest is a weighted R-MAT graph with parallel edges, fed in
// shuffled order: every fifth edge is repeated once or twice, each copy with
// a weight of its own, so a store shows in which order it keeps a repeated
// pair's records. The external tests run programs over it.
func MultigraphForTest(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	for k, n := 0, len(g.Edges); k < n; k += 5 {
		e := g.Edges[k]
		for c := 1; c <= 1+k%2; c++ {
			g.AddWeightedEdge(e.Src, e.Dst, e.Weight+float32(10*c))
		}
	}
	rng.Shuffle(len(g.Edges), func(a, b int) { g.Edges[a], g.Edges[b] = g.Edges[b], g.Edges[a] })
	return g
}

// TestRepeatedPairsKeepInputOrder: the build orders a bucket with a stable
// counting pass and sorts only the vertex runs that arrived out of order,
// stably, so a repeated (source, destination) pair keeps its input order in
// both views — in the out-block section of its source and the in-block
// section of its destination — whatever the format. Every spill budget
// stores the same bytes as the resident build.
func TestRepeatedPairsKeepInputOrder(t *testing.T) {
	const p = 4
	g := MultigraphForTest(31)
	type pair struct{ src, dst uint32 }
	want := map[pair][]float32{}
	for _, e := range g.Edges {
		k := pair{e.Src, e.Dst}
		want[k] = append(want[k], e.Weight)
	}
	repeated := 0
	for _, ws := range want {
		if len(ws) > 1 {
			repeated++
		}
	}
	if repeated == 0 {
		t.Fatal("the test graph has no repeated pair")
	}
	weightsOf := func(recs []Rec, nbr uint32) []float32 {
		var ws []float32
		for _, r := range recs {
			if r.Nbr == nbr {
				ws = append(ws, r.Weight)
			}
		}
		return ws
	}
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds, err := BuildOpts(memStore(), g, Options{P: p, Format: format, Weighted: true})
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		l := ds.Layout
		for k, ws := range want {
			i, j := l.IntervalOf(k.src), l.IntervalOf(k.dst)
			loI, _ := l.Bounds(i)
			loJ, _ := l.Bounds(j)
			out, err := loadOutBlock(ds, i, j)
			if err != nil {
				t.Fatal(err)
			}
			in, err := loadInBlock(ds, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if got := weightsOf(out.EdgesOf(int(k.src)-loI), k.dst); !slices.Equal(got, ws) {
				t.Fatalf("%v: out-block (%d,%d) keeps %d->%d as weights %v, want input order %v", format, i, j, k.src, k.dst, got, ws)
			}
			if got := weightsOf(in.EdgesOf(int(k.dst)-loJ), k.src); !slices.Equal(got, ws) {
				t.Fatalf("%v: in-block (%d,%d) keeps %d->%d as weights %v, want input order %v", format, i, j, k.src, k.dst, got, ws)
			}
		}
	}
	streamingMatchesDirect(t, g, p)
}

// TestShuffledInputStoresGoldenBytes: without repeated pairs the order a
// store's records take does not depend on the order the edges came in.
// TestStoreBytesGolden's graph, shuffled, stores the bytes its digests pin,
// raw and mixed, resident and streamed through spill parts.
func TestShuffledInputStoresGoldenBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	shuffled := g.Clone()
	rand.New(rand.NewSource(27)).Shuffle(len(shuffled.Edges), func(a, b int) {
		shuffled.Edges[a], shuffled.Edges[b] = shuffled.Edges[b], shuffled.Edges[a]
	})
	for _, format := range []Format{FormatRaw, FormatMixed} {
		want, err := BuildOpts(memStore(), g, Options{P: 4, Format: format, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildOpts(memStore(), shuffled, Options{P: 4, Format: format, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		storesEquivalent(t, want, got)
		streamed, _ := streamFrom(t, shuffled, 4, format, 257)
		storesEquivalent(t, want, streamed)
	}
}

// putCounter counts the Puts that reach its store.
type putCounter struct {
	storage.Store
	puts atomic.Int64
}

func (c *putCounter) Put(name string, data []byte) error {
	c.puts.Add(1)
	return c.Store.Put(name, data)
}

// TestBuildFailsCleanlyAtEveryPut: two buckets are encoded at once, so a
// Put that fails for good may land while the other bucket is still writing
// blocks and later buckets' spill parts are still in the store. Whichever
// Put fails — a spill flush, a block, an index or the meta — the build
// returns that Put's error once both buckets have ended, deletes every
// spill part, and never writes the meta, which comes after every bucket.
func TestBuildFailsCleanlyAtEveryPut(t *testing.T) {
	g := MultigraphForTest(33)
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	opts := Options{P: 3, Format: FormatMixed, Weighted: true}
	const spill = 400
	counted := &putCounter{Store: memStore()}
	if _, err := BuildStreamingOpts(counted, bytes.NewReader(bin.Bytes()), opts, spill); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < counted.puts.Load(); k++ {
		fs := storage.NewFaultStore(memStore(), 1)
		fs.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.FaultPermanent, After: k, Count: 1})
		if _, err := BuildStreamingOpts(fs, bytes.NewReader(bin.Bytes()), opts, spill); !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("Put %d failing: err = %v, want ErrPermanent", k, err)
		}
		noSpillBlobs(t, fs)
		if _, err := fs.Size(metaName); err == nil {
			t.Fatalf("Put %d failing: the meta was written", k)
		}
	}
}

// TestBucketRefusesEdgesOutsideInterval: a bucket's edges come back from
// spill parts in the store, so encodeBucket checks each one — its indexed
// vertex inside the bucket's interval, its neighbour inside the graph —
// before the edge's key indexes the counts, and refuses the bucket instead
// of panicking or writing a block.
func TestBucketRefusesEdgesOutsideInterval(t *testing.T) {
	g := gen.Path(12)
	for _, edges := range [][]graph.Edge{
		{{Src: 4, Dst: 5}, {Src: 3, Dst: 5}},  // below the interval [4, 8)
		{{Src: 4, Dst: 5}, {Src: 8, Dst: 5}},  // above it
		{{Src: 4, Dst: 5}, {Src: 5, Dst: 12}}, // a neighbour past the graph
	} {
		st := memStore()
		d, err := BuildOpts(st, g, Options{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		before := len(st.List())
		for _, in := range []bool{false, true} {
			if err := d.encodeBucket(1, in, FormatMixed, edges, &bucketScratch{}); err == nil {
				t.Fatalf("edges %v, in=%v: the bucket was accepted", edges, in)
			}
		}
		if after := len(st.List()); after != before {
			t.Fatalf("edges %v: a refused bucket wrote %d blobs", edges, after-before)
		}
	}
}
