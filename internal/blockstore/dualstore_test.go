package blockstore

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func memStore() *storage.MemStore {
	return storage.NewMemStore(storage.NewDevice(storage.RAM))
}

// paperGraph reproduces the 10-vertex example of the paper's Figure 4
// (1-indexed there; 0-indexed here by subtracting 1).
func paperGraph() *graph.Graph {
	g := graph.New(10)
	edges := [][2]int{
		// From Figure 4(b), in-blocks, converted to (src,dst) pairs:
		{2, 1}, {4, 1}, {4, 2}, {2, 3}, {4, 3}, {1, 4}, {1, 5}, {2, 5}, {10, 5},
		{6, 1}, {6, 2}, {9, 2}, {6, 3}, {9, 3}, {10, 3}, {6, 5}, {7, 5}, {10, 5 + 0},
		{1, 6}, {2, 6}, {1, 7}, {5, 7}, {1, 9}, {2, 9}, {5, 10},
		{7, 6}, {9, 6}, {9, 7}, {10, 7}, {6, 8}, {7, 8}, {9, 8},
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		k := [2]int{e[0] - 1, e[1] - 1}
		if seen[k] {
			continue
		}
		seen[k] = true
		g.AddEdge(graph.VertexID(k[0]), graph.VertexID(k[1]))
	}
	return g
}

func TestBuildPaperExample(t *testing.T) {
	g := paperGraph()
	ds, err := BuildOpts(memStore(), g, Options{P: 2, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Layout.P != 2 {
		t.Fatalf("P = %d", ds.Layout.P)
	}
	var total int64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			total += ds.BlockEdgeCount[i][j]
		}
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("block edge counts sum %d != %d", total, g.NumEdges())
	}
	// Figure 4(c): out-block (1,2) [0-indexed (0,1)] contains 1→6,7,9;
	// 2→6,9; 5→7,10 — i.e. 0→5,6,8; 1→5,8; 4→6,9.
	blk, err := loadOutBlock(ds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	edgesOf := func(local int) []graph.VertexID {
		var out []graph.VertexID
		for _, r := range blk.EdgesOf(local) {
			out = append(out, r.Nbr)
		}
		return out
	}
	if got := edgesOf(0); !reflect.DeepEqual(got, []graph.VertexID{5, 6, 8}) {
		t.Fatalf("out-edges of v0 into interval 1 = %v", got)
	}
	if got := edgesOf(4); !reflect.DeepEqual(got, []graph.VertexID{6, 9}) {
		t.Fatalf("out-edges of v4 into interval 1 = %v", got)
	}
	if got := edgesOf(2); len(got) != 0 {
		t.Fatalf("v2 should have no out-edges into interval 1, got %v", got)
	}

	// Figure 4(b): in-block (1,1) [(0,0)]: 2,4→1; 4→2; 2,4→3; 1→4; 1,2→5
	// (plus 10→5 belongs to in-block (2,1)). 0-indexed: dst0←{1,3},
	// dst1←{3}, dst2←{1,3}, dst3←{0}, dst4←{0,1}.
	in, err := loadInBlock(ds, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inOf := func(local int) []graph.VertexID {
		var out []graph.VertexID
		for _, r := range in.EdgesOf(local) {
			out = append(out, r.Nbr)
		}
		return out
	}
	if got := inOf(0); !reflect.DeepEqual(got, []graph.VertexID{1, 3}) {
		t.Fatalf("in-edges of v0 from interval 0 = %v", got)
	}
	if got := inOf(4); !reflect.DeepEqual(got, []graph.VertexID{0, 1}) {
		t.Fatalf("in-edges of v4 from interval 0 = %v", got)
	}
}

func TestSelectiveRangeMatchesFullBlock(t *testing.T) {
	for _, format := range []Format{FormatRaw, FormatMixed} {
		g := gen.RMAT(256, 2000, gen.Graph500, rand.New(rand.NewSource(3)))
		ds, err := BuildOpts(memStore(), g, Options{P: 4, Format: format, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				full, err := loadOutBlock(ds, i, j)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := loadOutIndexWords(ds, i, j) // byte offsets
				if err != nil {
					t.Fatal(err)
				}
				if len(idx) != len(full.Index) {
					t.Fatalf("index length mismatch block (%d,%d)", i, j)
				}
				for k := 0; k+1 < len(idx); k++ {
					want := full.EdgesOf(k)
					got, err := loadOutSection(ds, i, j, idx, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 && len(got) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v block (%d,%d) vertex %d: selective %v != full %v", format, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestLoadOutIndexConcurrent: LoadOutIndexScratch hands out a view of the
// scratch it loaded into, so concurrent callers each drawing their own from
// the pool never see each other's indices; were one scratch shared, another
// caller's read would land in it — a race, and the wrong index.
func TestLoadOutIndexConcurrent(t *testing.T) {
	const p = 4
	g := gen.RMAT(256, 2000, gen.Graph500, rand.New(rand.NewSource(3)))
	ds, err := BuildOpts(memStore(), g, Options{P: p, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	var want [p][p][]byte
	for i := range want {
		for j := range want[i] {
			if want[i][j], err = ds.LoadOutIndexScratch(i, j, &Scratch{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 1000*p; n++ {
				i, j := (w+n/p)%p, n%p
				sc := GetScratch()
				got, err := ds.LoadOutIndexScratch(i, j, sc)
				ok := err == nil && bytes.Equal(got, want[i][j])
				PutScratch(sc)
				if !ok {
					t.Errorf("worker %d: out-index(%d,%d): %v, or not the %d bytes loaded alone", w, i, j, err, len(want[i][j]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDegreesMatchGraph(t *testing.T) {
	g := gen.RMAT(128, 1000, gen.Graph500, rand.New(rand.NewSource(4)))
	ds, err := BuildOpts(memStore(), g, Options{P: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := g.OutDegrees(), g.InDegrees()
	for v := 0; v < g.NumVertices; v++ {
		if int(ds.OutDegrees[v]) != wantOut[v] || int(ds.InDegrees[v]) != wantIn[v] {
			t.Fatalf("degrees of %d: out %d/%d in %d/%d", v, ds.OutDegrees[v], wantOut[v], ds.InDegrees[v], wantIn[v])
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	g := gen.RMAT(128, 800, gen.Graph500, rand.New(rand.NewSource(5)))
	st := memStore()
	built, err := BuildOpts(st, g, Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Layout != built.Layout || opened.Weighted != built.Weighted {
		t.Fatalf("layout %+v weighted %v != %+v %v", opened.Layout, opened.Weighted, built.Layout, built.Weighted)
	}
	if !reflect.DeepEqual(opened.OutDegrees, built.OutDegrees) || !reflect.DeepEqual(opened.InDegrees, built.InDegrees) {
		t.Fatal("degrees round trip mismatch")
	}
	for k, m := range metaGrids(opened) {
		if !reflect.DeepEqual(*m, *metaGrids(built)[k]) {
			t.Fatalf("meta grid %d round trip mismatch", k)
		}
	}
}

func TestOpenMissingMeta(t *testing.T) {
	if _, err := Open(memStore()); err == nil {
		t.Fatal("Open on empty store succeeded")
	}
}

func TestBuildOnFileStore(t *testing.T) {
	g := gen.RMAT(64, 300, gen.Graph500, rand.New(rand.NewSource(6)))
	fs, err := storage.NewFileStore(storage.NewDevice(storage.RAM), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	built, err := BuildOpts(fs, g, Options{P: 2, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	if opened.NumEdges() != built.NumEdges() {
		t.Fatalf("edges %d != %d", opened.NumEdges(), built.NumEdges())
	}
	blk, err := loadInBlock(opened, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(blk.Recs)), opened.BlockEdgeCount[1][0]; got == 0 || got != want {
		t.Fatalf("in-block (1,0) loaded %d records, meta records %d edges", got, want)
	}
}

func TestSizeAccounting(t *testing.T) {
	g := gen.RMAT(100, 600, gen.Graph500, rand.New(rand.NewSource(7)))
	ds, err := BuildOpts(memStore(), g, Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ds.TotalEdgeBytes(), int64(g.NumEdges()*EdgeBytes); got != want {
		t.Fatalf("TotalEdgeBytes = %d, want %d", got, want)
	}
	// The in-blocks are one record per edge, their intervals one tile.
	var colSum int64
	for j := 0; j < ds.Layout.P; j++ {
		for i := 0; i < ds.Layout.P; i++ {
			colSum += ds.InBlockBytes[i][j]
		}
	}
	if colSum != ds.TotalEdgeBytes() {
		t.Fatalf("column bytes %d != edges %d", colSum, ds.TotalEdgeBytes())
	}
	if got := ds.OutIndexBytes(0, 1); got != int64(ds.Layout.Size(0)+1)*IndexEntryBytes {
		t.Fatalf("OutIndexBytes = %d", got)
	}
}

func TestRandomAccessCharged(t *testing.T) {
	g := gen.RMAT(64, 400, gen.Graph500, rand.New(rand.NewSource(8)))
	st := memStore()
	ds, err := BuildOpts(st, g, Options{P: 2, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	dev := st.Device()
	dev.Reset()
	idx, _ := loadOutIndexWords(ds, 0, 0)
	// Find a vertex with edges.
	for k := 0; k+1 < len(idx); k++ {
		if idx[k+1] > idx[k] {
			if _, err := ds.LoadOutRunScratch(0, 0, idx[k], idx[k+1], nil); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	s := dev.Stats()
	if s.RandAccesses != 1 {
		t.Fatalf("RandAccesses = %d, want 1", s.RandAccesses)
	}
	if s.SeqReadBytes == 0 {
		t.Fatal("index load not charged sequentially")
	}
}

func TestBuildRejectsInvalidGraph(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 5)
	if _, err := BuildOpts(memStore(), g, Options{P: 2, Weighted: true}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestEmptyGraphBuild(t *testing.T) {
	g := graph.New(10)
	ds, err := BuildOpts(memStore(), g, Options{P: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d", ds.NumEdges())
	}
	blk, err := loadInBlock(ds, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Recs) != 0 {
		t.Fatal("empty block has records")
	}
	// No vertices at all: NewLayout keeps the P it was given, so decodeMeta's
	// "no more intervals than vertices" bound must not apply.
	mem := memStore()
	if _, err := BuildOpts(mem, graph.New(0), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(mem); err != nil || re.Layout.P != 4 {
		t.Fatalf("reopening a zero-vertex store: %v, layout %+v", err, re)
	}
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	for _, c := range []struct {
		what     string
		payload  []byte
		weighted bool
	}{
		{"a segment whose weights are cut off", []byte{1, 2, 0, 1, 0xAA}, true},
		{"an unterminated record count", []byte{0xFF}, false},
		{"a segment of no record", []byte{0, 1, 0}, false},
		{"a key past 2³²", []byte{2, 9, 0xf3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false},
		{"a second segment on the first one's destination", []byte{1, 2, 0, 1, 1, 2, 0, 2}, false},
	} {
		if _, err := AppendGV(nil, c.payload, c.weighted); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want storage.ErrCorrupt-class", c.what, err)
		}
	}
	for _, n := range []int{6, 12} {
		if err := checkOutIndex(make([]byte, n), 2); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("out-index of %d bytes for 2 entries: err = %v, want storage.ErrCorrupt-class", n, err)
		}
	}
	if _, err := decodeMeta([]byte("JUNK")); err == nil {
		t.Fatal("bad meta accepted")
	}
	if _, err := decodeMeta([]byte("HUSBxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("truncated meta accepted")
	}
	// No builder stores a blob in more than its raw bytes; the codec rule
	// (codecOf) could not name such a blob's encoding.
	ds, err := BuildOpts(memStore(), chain(16), Options{P: 2, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	ds.InBlockBytes[1][0]++
	if _, err := decodeMeta(encodeMeta(ds)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("in-block stored past its raw size: err = %v, want storage.ErrCorrupt-class", err)
	}
}

// Property: every graph edge appears exactly once in the out-block grid and
// exactly once in the in-block grid, in the right block, with weights
// preserved.
func TestQuickDualBlockPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		p := 1 + rng.Intn(6)
		g := graph.New(n)
		for k := 0; k < rng.Intn(300); k++ {
			g.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), rng.Float32())
		}
		ds, err := BuildOpts(memStore(), g, Options{P: p, Weighted: true})
		if err != nil {
			return false
		}
		l := ds.Layout
		count := func(edges []graph.Edge) map[graph.Edge]int {
			m := map[graph.Edge]int{}
			for _, e := range edges {
				m[e]++
			}
			return m
		}
		want := count(g.Edges)
		fromOut := map[graph.Edge]int{}
		fromIn := map[graph.Edge]int{}
		for i := 0; i < l.P; i++ {
			for j := 0; j < l.P; j++ {
				ob, err := loadOutBlock(ds, i, j)
				if err != nil {
					return false
				}
				loI, _ := l.Bounds(i)
				for k := 0; k+1 < len(ob.Index); k++ {
					for _, r := range ob.EdgesOf(k) {
						if l.IntervalOf(r.Nbr) != j {
							return false
						}
						fromOut[graph.Edge{Src: graph.VertexID(loI + k), Dst: r.Nbr, Weight: r.Weight}]++
					}
				}
				ib, err := loadInBlock(ds, i, j)
				if err != nil {
					return false
				}
				loJ, _ := l.Bounds(j)
				for k := 0; k < l.Size(j); k++ {
					for _, r := range ib.EdgesOf(k) {
						if l.IntervalOf(r.Nbr) != i {
							return false
						}
						fromIn[graph.Edge{Src: r.Nbr, Dst: graph.VertexID(loJ + k), Weight: r.Weight}]++
					}
				}
			}
		}
		return reflect.DeepEqual(want, fromOut) && reflect.DeepEqual(want, fromIn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
