package blockstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// streamFrom serializes g and streaming-builds it.
func streamFrom(t *testing.T, g *graph.Graph, p int, format Format, spill int) (*DualStore, *storage.MemStore) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	st := memStore()
	ds, err := BuildStreaming(st, &buf, p, format, spill)
	if err != nil {
		t.Fatal(err)
	}
	return ds, st
}

// storesEquivalent asserts two DualStores hold the same decoded blocks,
// metadata and stored in-index blobs.
func storesEquivalent(t *testing.T, a, b *DualStore) {
	t.Helper()
	if a.Layout != b.Layout || a.Format != b.Format {
		t.Fatalf("layout/format: %+v/%v vs %+v/%v", a.Layout, a.Format, b.Layout, b.Format)
	}
	if !reflect.DeepEqual(a.OutDegrees, b.OutDegrees) || !reflect.DeepEqual(a.InDegrees, b.InDegrees) {
		t.Fatal("degrees differ")
	}
	if !reflect.DeepEqual(a.BlockEdgeCount, b.BlockEdgeCount) {
		t.Fatal("block counts differ")
	}
	if !reflect.DeepEqual(a.OutBlockBytes, b.OutBlockBytes) || !reflect.DeepEqual(a.InBlockBytes, b.InBlockBytes) {
		t.Fatal("block byte sizes differ")
	}
	if !reflect.DeepEqual(a.InIndexEntries, b.InIndexEntries) || !reflect.DeepEqual(a.InIndexStoredBytes, b.InIndexStoredBytes) {
		t.Fatal("in-index entry counts or stored sizes differ")
	}
	for i := 0; i < a.Layout.P; i++ {
		for j := 0; j < a.Layout.P; j++ {
			aii, err := a.Store().ReadAll(inIndexName(i, j))
			if err != nil {
				t.Fatal(err)
			}
			bii, err := b.Store().ReadAll(inIndexName(i, j))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aii, bii) {
				t.Fatalf("stored in-index (%d,%d) differs", i, j)
			}
			ao, err := loadOutBlock(a, i, j)
			if err != nil {
				t.Fatal(err)
			}
			bo, err := loadOutBlock(b, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ao, bo) {
				t.Fatalf("out-block (%d,%d) differs", i, j)
			}
			ai, err := loadInBlock(a, i, j)
			if err != nil {
				t.Fatal(err)
			}
			bi, err := loadInBlock(b, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ai, bi) {
				t.Fatalf("in-block (%d,%d) differs", i, j)
			}
		}
	}
}

func TestBuildStreamingMatchesInMemoryBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	// Build requires (src,dst)-sorted determinism; BuildStreaming sorts
	// internally, so feed the same multiset.
	for _, format := range []Format{FormatRaw, FormatMixed} {
		want, err := BuildWithFormat(memStore(), g, 4, format)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := streamFrom(t, g, 4, format, 0)
		storesEquivalent(t, want, got)
	}
}

func TestBuildStreamingTinySpillBudget(t *testing.T) {
	// A 64-edge budget forces many spill flushes; result must be
	// identical.
	rng := rand.New(rand.NewSource(22))
	g := gen.RMAT(100, 900, gen.Graph500, rng)
	want, err := Build(memStore(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamFrom(t, g, 3, FormatRaw, 64)
	storesEquivalent(t, want, got)
}

func TestBuildStreamingCleansSpillBlobs(t *testing.T) {
	g := gen.Path(50)
	_, st := streamFrom(t, g, 2, FormatRaw, 16)
	for _, name := range st.List() {
		if strings.HasPrefix(name, "tmp/") {
			t.Fatalf("spill blob %s left behind", name)
		}
	}
}

func TestBuildStreamingOpenable(t *testing.T) {
	g := gen.Cycle(40)
	_, st := streamFrom(t, g, 4, FormatMixed, 8)
	ds, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumEdges() != 40 || ds.Format != FormatMixed {
		t.Fatalf("opened: edges=%d format=%v", ds.NumEdges(), ds.Format)
	}
}

func TestBuildStreamingRejectsGarbage(t *testing.T) {
	if _, err := BuildStreaming(memStore(), strings.NewReader("not a graph"), 2, FormatRaw, 0); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := BuildStreaming(memStore(), strings.NewReader(""), 2, FormatRaw, 0); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBuildStreamingRejectsOutOfRangeEdge(t *testing.T) {
	// Hand-craft a header claiming 2 vertices with an edge to vertex 9.
	g := graph.New(10)
	g.AddEdge(0, 9)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Patch numV down to 2 (offset 8, little-endian uint64).
	for k := 0; k < 8; k++ {
		b[8+k] = 0
	}
	b[8] = 2
	if _, err := BuildStreaming(memStore(), bytes.NewReader(b), 2, FormatRaw, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestBuildStreamingRejectsBadFormat(t *testing.T) {
	if _, err := BuildStreaming(memStore(), strings.NewReader(""), 2, Format(9), 0); err == nil {
		t.Fatal("bad format accepted")
	}
}
