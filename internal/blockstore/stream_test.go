package blockstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
	ds, err := BuildStreamingOpts(st, &buf, Options{P: p, Format: format, Weighted: true}, spill)
	if err != nil {
		t.Fatal(err)
	}
	return ds, st
}

// storesEquivalent asserts two stores hold the same blobs, byte for byte:
// the same names, and under each name — meta included — the same bytes.
func storesEquivalent(t *testing.T, a, b *DualStore) {
	t.Helper()
	names := a.Store().List()
	if got := b.Store().List(); !reflect.DeepEqual(names, got) {
		t.Fatalf("blob names differ:\n%v\n%v", names, got)
	}
	for _, name := range names {
		ab, err := a.Store().ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Store().ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("blob %s differs (%d vs %d bytes)", name, len(ab), len(bb))
		}
	}
}

// streamingMatchesDirect builds g with BuildOpts and with BuildStreamingOpts
// at a budget that flushes on every edge, one that flushes mid-bucket and the
// default, raw and mixed, weighted and not: every store must be the same
// bytes.
func streamingMatchesDirect(t *testing.T, g *graph.Graph, p int) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatRaw, FormatMixed} {
		for _, weighted := range []bool{true, false} {
			opts := Options{P: p, Format: format, Weighted: weighted}
			want, err := BuildOpts(memStore(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, spill := range []int{1, 257, 0} {
				got, err := BuildStreamingOpts(memStore(), bytes.NewReader(buf.Bytes()), opts, spill)
				if err != nil {
					t.Fatalf("%v weighted=%v spill=%d: %v", format, weighted, spill, err)
				}
				storesEquivalent(t, want, got)
			}
		}
	}
}

func TestBuildStreamingMatchesInMemoryBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	streamingMatchesDirect(t, g, 4)
}

func TestBuildStreamingTinySpillBudget(t *testing.T) {
	// A 64-edge budget forces many spill flushes; result must be
	// identical.
	rng := rand.New(rand.NewSource(22))
	g := gen.RMAT(100, 900, gen.Graph500, rng)
	want, err := BuildOpts(memStore(), g, Options{P: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamFrom(t, g, 3, FormatRaw, 64)
	storesEquivalent(t, want, got)
}

// TestStoreBytesGolden pins the bytes a build stores: sha256 over the sorted
// blob names and contents of a fixed small graph, re-recorded when the
// meta dropped its format field and codec grids and mixed stores their
// frames' codec tags (PR 29), when the meta gained the out-blocks' source
// masks (magic HUSE), when it gained the out-index page CRCs (magic
// HUSF; both times every other blob kept its bytes), and when the row view
// went raw in every format (magic HUSG: the meta dropped the out-block and
// out-index size grids, a raw store kept every other blob, a mixed store
// every in-block and in-index, and its out-blocks and out-indices became
// the raw store's), and when a raw store over intervals that fit 16 bits
// stored its in-blocks CodecCOO (magic HUSH and a flags word: the raw
// store's ib/ blobs became records and its ii/ blobs went; a mixed store
// kept every blob but its meta), and when out-block records took
// interval-local destinations (magic HUSI: in both formats the ob/ blobs
// hold 16-bit destinations, the oi/ blobs offsets into them, and the meta
// their page CRCs; every column-view blob kept its bytes), and when a mixed
// store over intervals that fit 16 bits stored its in-blocks as
// group-varint key deltas with no in-index (magic HUSJ: the meta dropped its
// in-index size grid and its CodecCOO flag; a raw store kept every blob but
// its meta, a mixed store's ib/ blobs became key deltas or records and its
// ii/ blobs went), and when in-blocks over wider intervals became tiles
// (magic HUSK: the meta dropped its per-block destination-count grid; both
// stores here fit 16 bits and kept every blob but the meta). A change that
// moves a store byte — a layout, codec, frame or meta change — fails here
// and says so by updating the digest.
func TestStoreBytesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	for _, tc := range []struct {
		format Format
		want   string
	}{
		{FormatRaw, "8ec169a8ffaabd871f562f34400ba1e10edc52462940595f522a2fe2a409b4c6"},
		{FormatMixed, "48e01f7234b5d09c855d22ef3913a3d6f9aab520e1dbe6c4494212f1dcdaa2ba"},
	} {
		st := memStore()
		if _, err := BuildOpts(st, g, Options{P: 4, Format: tc.format, Weighted: true}); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, name := range st.List() {
			blob, err := st.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", name, len(blob))
			h.Write(blob)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%v store digest %s, want %s", tc.format, got, tc.want)
		}
	}
}

// noSpillBlobs asserts the store holds no tmp/ name.
func noSpillBlobs(t *testing.T, st storage.Store) {
	t.Helper()
	for _, name := range st.List() {
		if strings.HasPrefix(name, "tmp/") {
			t.Fatalf("spill blob %s left behind", name)
		}
	}
}

func TestBuildStreamingCleansSpillBlobs(t *testing.T) {
	g := gen.Path(50)
	_, st := streamFrom(t, g, 2, FormatRaw, 16)
	noSpillBlobs(t, st)

	// A build that fails after its first flush: on the last edge, which is
	// out of range, with every earlier edge already spilled.
	bad := gen.Path(50)
	bad.AddEdge(0, 50)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, bad); err != nil {
		t.Fatal(err)
	}
	failed := memStore()
	if _, err := BuildStreamingOpts(failed, bytes.NewReader(buf.Bytes()), Options{P: 2, Format: FormatRaw, Weighted: true}, 1); err == nil {
		t.Fatal("out-of-range last edge accepted")
	}
	noSpillBlobs(t, failed)

	// And on the k-th Put failing for good, wherever it lands: in a flush,
	// or in a block write while later buckets' parts are still in the store.
	buf.Reset()
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 3, 10, 14} {
		fs := storage.NewFaultStore(memStore(), 1)
		fs.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.FaultPermanent, After: k, Count: 1})
		if _, err := BuildStreamingOpts(fs, bytes.NewReader(buf.Bytes()), Options{P: 2, Format: FormatRaw, Weighted: true}, 16); !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("Put %d failing: err = %v, want ErrPermanent", k, err)
		}
		noSpillBlobs(t, fs)
	}
}

// TestHUSGHeaderBounds: a header is the input's word, not a size to
// allocate. The first two headers made BuildStreamingOpts and graph.ReadBinary
// panic in makeslice; the third promises more records than follow.
func TestHUSGHeaderBounds(t *testing.T) {
	header := func(numV, numE uint64, records int) []byte {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, graph.New(0)); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes() // magic, version, then the two counts
		binary.LittleEndian.PutUint64(b[8:], numV)
		binary.LittleEndian.PutUint64(b[16:], numE)
		return append(b, make([]byte, records*graph.EdgeRecordBytes)...)
	}
	for _, tc := range []struct {
		name  string
		input []byte
		eof   bool // the error is the stream running out, not the header refused
	}{
		{"numV 2^62", header(1<<62, 0, 0), false},
		{"numE 2^62", header(4, 1<<62, 0), true},
		{"numE past the records", header(4, 3, 2), true},
	} {
		if _, err := graph.ReadBinary(bytes.NewReader(tc.input)); err == nil || errors.Is(err, io.EOF) != tc.eof {
			t.Errorf("%s: ReadBinary err = %v", tc.name, err)
		}
		st := memStore()
		if _, err := BuildStreamingOpts(st, bytes.NewReader(tc.input), Options{P: 2, Format: FormatRaw, Weighted: true}, 1); err == nil || errors.Is(err, io.EOF) != tc.eof {
			t.Errorf("%s: BuildStreamingOpts err = %v", tc.name, err)
		}
		noSpillBlobs(t, st)
	}
}

func TestBuildStreamingOpenable(t *testing.T) {
	g := gen.Cycle(40)
	_, st := streamFrom(t, g, 4, FormatMixed, 8)
	ds, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumEdges() != 40 || ds.InCodec(0, 0) != CodecVarint {
		t.Fatalf("opened: edges=%d, in-block (0,0) %v", ds.NumEdges(), ds.InCodec(0, 0))
	}
}

func TestBuildStreamingRejectsGarbage(t *testing.T) {
	if _, err := BuildStreamingOpts(memStore(), strings.NewReader("not a graph"), Options{P: 2, Format: FormatRaw, Weighted: true}, 0); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := BuildStreamingOpts(memStore(), strings.NewReader(""), Options{P: 2, Format: FormatRaw, Weighted: true}, 0); err == nil {
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
	if _, err := BuildStreamingOpts(memStore(), bytes.NewReader(b), Options{P: 2, Format: FormatRaw, Weighted: true}, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestBuildStreamingRejectsBadFormat(t *testing.T) {
	if _, err := BuildStreamingOpts(memStore(), strings.NewReader(""), Options{P: 2, Format: Format(9), Weighted: true}, 0); err == nil {
		t.Fatal("bad format accepted")
	}
}

// TestBuildRejectsNoIntervals: a P below one is an error from both build
// entry points, not a panic out of NewLayout (husgraph -p 0 and husgen
// -blocks DIR -p 0 reach build with it).
func TestBuildRejectsNoIntervals(t *testing.T) {
	g := gen.Cycle(16)
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, -3} {
		if _, err := BuildOpts(memStore(), g, Options{P: p}); err == nil {
			t.Fatalf("BuildOpts accepted P = %d", p)
		}
		if _, err := BuildStreamingOpts(memStore(), bytes.NewReader(bin.Bytes()), Options{P: p}, 0); err == nil {
			t.Fatalf("BuildStreamingOpts accepted P = %d", p)
		}
	}
}
