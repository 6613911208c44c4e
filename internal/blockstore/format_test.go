package blockstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
)

func TestFormatString(t *testing.T) {
	if FormatRaw.String() != "raw" || FormatMixed.String() != "mixed" {
		t.Fatal("format names")
	}
	if Format(9).String() == "" {
		t.Fatal("unknown format String empty")
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"raw": FormatRaw, "mixed": FormatMixed} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"zip", "compressed"} {
		if _, err := ParseFormat(in); err == nil {
			t.Fatalf("bad format %q accepted", in)
		}
	}
}

// TestVertexRecsRoundTripBothFormats: the records a raw store keeps and
// their mixed twin, group-varint key deltas, decode to the same bytes,
// repeated keys, a destination change and a 4-byte delta among them.
func TestVertexRecsRoundTripBothFormats(t *testing.T) {
	recs := []Rec{{Nbr: 3, Weight: 1.5}, {Nbr: 4, Weight: 0}, {Nbr: 4, Weight: 7}, {Nbr: 1<<16 | 2, Weight: -2.25}, {Nbr: 0xffffffff, Weight: 1}}
	for _, weighted := range []bool{false, true} {
		got, err := AppendGV(nil, appendGV(nil, recs, weighted), weighted)
		if err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if want := encodeVertexRecs(nil, recs, 4, weighted); !bytes.Equal(got, want) {
			t.Fatalf("weighted=%v: round trip %x != %x", weighted, got, want)
		}
	}
}

func TestCompressedEncodingRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted records accepted")
		}
	}()
	appendGV(nil, []Rec{{Nbr: 5}, {Nbr: 3}}, true)
}

func TestCompressedSmallerOnRealBlocks(t *testing.T) {
	g := gen.Web(4096, 40000, gen.DefaultWeb, rand.New(rand.NewSource(11)))
	raw, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatRaw, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if inEdgeBytes(comp) >= inEdgeBytes(raw) {
		t.Fatalf("compressed in-blocks %d not below raw %d", inEdgeBytes(comp), inEdgeBytes(raw))
	}
	ratio := float64(inEdgeBytes(comp)) / float64(inEdgeBytes(raw))
	if ratio > 0.95 {
		t.Fatalf("compression ratio %.2f too weak", ratio)
	}
	t.Logf("compression ratio: %.2f", ratio)
}

func TestCompressedBlocksDecodeIdentically(t *testing.T) {
	g := gen.RMAT(128, 1200, gen.Graph500, rand.New(rand.NewSource(12)))
	gen.AssignUniformWeights(g, 1, 5, rand.New(rand.NewSource(13)))
	raw, err := BuildOpts(memStore(), g, Options{P: 3, Format: FormatRaw, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildOpts(memStore(), g, Options{P: 3, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a, err := loadInBlock(raw, i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loadInBlock(comp, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("in-block (%d,%d) differs across formats", i, j)
			}
			ao, err := loadOutBlock(raw, i, j)
			if err != nil {
				t.Fatal(err)
			}
			bo, err := loadOutBlock(comp, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ao, bo) {
				t.Fatalf("out-block (%d,%d) differs across formats", i, j)
			}
		}
	}
}

func TestCompressedOpenRoundTrip(t *testing.T) {
	g := gen.RMAT(64, 300, gen.Graph500, rand.New(rand.NewSource(14)))
	st := memStore()
	built, err := BuildOpts(st, g, Options{P: 2, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opened.BlockEdgeCount, built.BlockEdgeCount) || !reflect.DeepEqual(opened.InBlockBytes, built.InBlockBytes) {
		t.Fatal("byte sizes lost")
	}
}

func TestBuildRejectsUnknownFormat(t *testing.T) {
	g := graph.New(2)
	if _, err := BuildOpts(memStore(), g, Options{P: 1, Format: Format(7), Weighted: true}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// Property: a CodecVarint block decodes to the CodecCOO records of its raw
// twin, appended after whatever dst already held — AppendGV(prefix,
// appendGV(recs)) == prefix ‖ the records — for sorted random keys, none
// included, repeats included, in blocks long enough to span segments,
// weighted and not.
func TestQuickVertexRecsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3 * GVSegmentRecords) // 0: an empty block
		recs := make([]Rec, 0, n)
		key := uint64(rng.Intn(1 << 20))
		for k := 0; k < n; k++ {
			if key += uint64(rng.Intn(1 << (4 * rng.Intn(8)))); key >= 1<<32 { // gaps of zero to four bytes
				break
			}
			recs = append(recs, Rec{Nbr: uint32(key), Weight: rng.Float32()})
		}
		prefix := make([]byte, rng.Intn(9))
		rng.Read(prefix)
		for _, weighted := range []bool{false, true} {
			want := encodeVertexRecs(append([]byte(nil), prefix...), recs, 4, weighted)
			dst := append(make([]byte, 0, len(prefix)), prefix...)
			got, err := AppendGV(dst, appendGV(nil, recs, weighted), weighted)
			if err != nil || !bytes.Equal(got, want) {
				t.Logf("weighted %v: err %v, %d bytes, want %d", weighted, err, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnweightedStoresSmallerAndDecodeWeightOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.RMAT(256, 2000, gen.Graph500, rng)
	gen.AssignUniformWeights(g, 2, 9, rng)
	weighted, err := BuildOpts(memStore(), g, Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := BuildOpts(memStore(), g, Options{P: 4, Weighted: false})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unweighted.TotalEdgeBytes(), weighted.TotalEdgeBytes()/2; got != want {
		t.Fatalf("unweighted bytes %d, want half of %d", got, weighted.TotalEdgeBytes())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			w, err := loadInBlock(weighted, i, j)
			if err != nil {
				t.Fatal(err)
			}
			u, err := loadInBlock(unweighted, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Recs) != len(u.Recs) {
				t.Fatalf("record counts differ in block (%d,%d)", i, j)
			}
			for k := range u.Recs {
				if u.Recs[k].Nbr != w.Recs[k].Nbr {
					t.Fatalf("neighbor mismatch block (%d,%d) rec %d", i, j, k)
				}
				if u.Recs[k].Weight != 1 {
					t.Fatalf("unweighted weight = %v", u.Recs[k].Weight)
				}
			}
		}
	}
}

func TestRawRecAccessor(t *testing.T) {
	recs := []Rec{{Nbr: 42, Weight: 2.5}, {Nbr: 99, Weight: 0.5}}
	wbuf := encodeVertexRecs(nil, recs, 4, true)
	if nbr, w := RawRec(wbuf, EdgeBytes, true); nbr != 99 || w != 0.5 {
		t.Fatalf("weighted RawRec = %d, %v", nbr, w)
	}
	ubuf := encodeVertexRecs(nil, recs, 4, false)
	if len(ubuf) != 2*RawRecordBytes(false) {
		t.Fatalf("unweighted payload %d bytes", len(ubuf))
	}
	if nbr, w := RawRec(ubuf, 4, false); nbr != 99 || w != 1 {
		t.Fatalf("unweighted RawRec = %d, %v", nbr, w)
	}
}

func TestStreamingUnweightedMatchesDirect(t *testing.T) {
	streamingMatchesDirect(t, gen.RMAT(120, 900, gen.Graph500, rand.New(rand.NewSource(32))), 3)
}
