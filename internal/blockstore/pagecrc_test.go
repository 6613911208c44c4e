package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// pagedGraph has 8200 vertices in two intervals at P = 2: each out-index is
// 4101 entries, 16404 bytes — four whole pages and a partial fifth.
func pagedGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(44))
	g := graph.New(8200)
	for k := 0; k < 40000; k++ {
		g.AddEdge(graph.VertexID(rng.Intn(8200)), graph.VertexID(rng.Intn(8200)))
	}
	g.Dedup()
	return g
}

// TestOutIndexSpanReadsVerifiedPages: a page-span load of an out-index is
// one random read of exactly the pages holding the extent's entries First
// through End — no frame header, nothing sequential — and hands back those
// bytes of the index with their offset; a page whose CRC the meta records
// otherwise is ErrCorrupt-class, wherever in the span it sits, and a span
// that does not touch it still loads. A mixed store's out-index is the same
// raw index, with the same page CRCs.
func TestOutIndexSpanReadsVerifiedPages(t *testing.T) {
	ds, err := BuildOpts(memStore(), pagedGraph(), Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ds.LoadOutIndexScratch(0, 1, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 16404 || len(ds.OutIndexPageCRCs[0][1]) != 5 {
		t.Fatalf("out-index (0,1): %d bytes, %d page CRCs; want 16404 and 5", len(whole), len(ds.OutIndexPageCRCs[0][1]))
	}
	sc := &Scratch{}
	for _, c := range []struct {
		x        Extent
		off, end int64
	}{
		{Extent{0, 1}, 0, 4096},
		{Extent{1023, 1024}, 0, 8192},      // entry 1024 opens page 1
		{Extent{1024, 4095}, 4096, 16384},  // pages 1–3
		{Extent{4099, 4100}, 16384, 16404}, // the partial last page alone
		{Extent{0, 4100}, 0, 16404},        // every page
		{Extent{2000, 2001}, 4096, 8192},   // one page inside
	} {
		what := fmt.Sprintf("extent %+v", c.x)
		if off, end := ds.OutIndexSpan(0, 1, c.x); off != c.off || end != c.end {
			t.Fatalf("%s: span [%d, %d), want [%d, %d)", what, off, end, c.off, c.end)
		}
		before := ds.Device().Stats()
		got, base, err := ds.LoadOutIndexSpanScratch(0, 1, c.x, sc)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		io := ds.Device().Stats().Sub(before)
		if base != int(c.off) || !bytes.Equal(got, whole[c.off:c.end]) {
			t.Fatalf("%s: %d bytes from %d, want [%d, %d) of the index", what, len(got), base, c.off, c.end)
		}
		if io.RandReadBytes != c.end-c.off || io.RandAccesses != 1 || io.SeqReadBytes != 0 {
			t.Fatalf("%s: charged %v, want one random read of %d bytes", what, io, c.end-c.off)
		}
	}

	// A CRC the meta records wrongly for page 1.
	ds.OutIndexPageCRCs[0][1][1] ^= 1
	for _, c := range []struct {
		x    Extent
		fail bool
	}{
		{Extent{0, 1}, false},
		{Extent{1023, 1024}, true},
		{Extent{0, 4100}, true},
		{Extent{2100, 2101}, false},
	} {
		_, _, err := ds.LoadOutIndexSpanScratch(0, 1, c.x, sc)
		if c.fail != (err != nil) || err != nil && !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("extent %+v over a wrong page-1 CRC: err = %v, want a failure %v, ErrCorrupt-class", c.x, err, c.fail)
		}
	}

	mixed, err := BuildOpts(memStore(), pagedGraph(), Options{P: 2, Format: FormatMixed})
	if err != nil {
		t.Fatal(err)
	}
	ds.OutIndexPageCRCs[0][1][1] ^= 1
	if !reflect.DeepEqual(mixed.OutIndexPageCRCs, ds.OutIndexPageCRCs) {
		t.Fatal("the mixed store's out-index page CRCs differ from the raw store's")
	}
	got, base, err := mixed.LoadOutIndexSpanScratch(0, 1, Extent{1024, 4095}, sc)
	if err != nil || base != 4096 || !bytes.Equal(got, whole[4096:16384]) {
		t.Fatalf("mixed out-index: %d bytes from %d (%v), want pages 1–3 of the raw index", len(got), base, err)
	}
}

// TestOpenRefusesFlippedPageCRC: the page CRCs are part of the meta payload
// its frame checksums, so a bit flipped among them is refused at Open.
func TestOpenRefusesFlippedPageCRC(t *testing.T) {
	err := openWithMeta(t, FormatRaw, func(meta []byte) []byte {
		framed := frameBlob(meta)
		framed[len(framed)-3] ^= 0x10 // inside the last page CRC
		return framed
	})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Open: err = %v, want storage.ErrCorrupt-class", err)
	}
}

// badPageCRCMetas are meta payloads whose page-CRC section holds one CRC too
// few or too many — for the raw chain(300) store at P = 4, one page per
// index — or, of a mixed store whose out-indices span five pages each, a
// whole index's CRCs too few.
func badPageCRCMetas(tb testing.TB) map[string][]byte {
	tb.Helper()
	d, err := BuildOpts(memStore(), chain(300), Options{P: 4, Weighted: true})
	if err != nil {
		tb.Fatal(err)
	}
	honest := encodeMeta(d)
	m, err := BuildOpts(memStore(), pagedGraph(), Options{P: 2, Format: FormatMixed})
	if err != nil {
		tb.Fatal(err)
	}
	m.OutIndexPageCRCs[1][1] = nil
	return map[string][]byte{
		"one word short":                     honest[:len(honest)-4],
		"one word long":                      append(honest[:len(honest):len(honest)], 0, 0, 0, 0),
		"a mixed store's out-index left out": encodeMeta(m),
	}
}

// TestDecodeMetaRefusesBadPageCRCs: the page-CRC section is sized from the
// layout, one CRC per page of every out-index in every format, so a section
// a word short or long, or one without a mixed store's out-index, is refused
// storage.ErrCorrupt-class.
func TestDecodeMetaRefusesBadPageCRCs(t *testing.T) {
	for what, meta := range badPageCRCMetas(t) {
		if _, err := decodeMeta(meta); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decodeMeta err = %v, want storage.ErrCorrupt-class", what, err)
		}
	}
}

// FuzzOutIndexPages: whatever byte of an out-index blob is corrupted, and
// whatever extent is loaded, a page-span load returns exactly the
// uncorrupted bytes of the span — the corruption lay outside it, in the
// frame header it skips or in another page — or fails ErrCorrupt-class; it
// never panics and never returns other bytes.
func FuzzOutIndexPages(f *testing.F) {
	mem := memStore()
	ds, err := BuildOpts(mem, pagedGraph(), Options{P: 2})
	if err != nil {
		f.Fatal(err)
	}
	size := int32(ds.Layout.Size(0))
	f.Add(uint8(1), uint16(0), uint16(0), uint32(0), uint8(0))          // no corruption
	f.Add(uint8(1), uint16(1023), uint16(0), uint32(17+4096), uint8(1)) // first byte of page 1
	f.Add(uint8(0), uint16(0), uint16(4100), uint32(3), uint8(0x80))    // the frame header
	f.Add(uint8(3), uint16(4099), uint16(0), uint32(17), uint8(0xff))   // another page
	f.Fuzz(func(t *testing.T, block uint8, first, length uint16, pos uint32, xor uint8) {
		i, j := int(block>>1&1), int(block&1)
		name := outIndexName(i, j)
		honest, err := mem.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := mem.Put(name, honest); err != nil {
				t.Fatal(err)
			}
		}()
		bad := append([]byte(nil), honest...)
		bad[int(pos)%len(bad)] ^= xor
		if err := mem.Put(name, bad); err != nil {
			t.Fatal(err)
		}
		x := Extent{First: int32(first) % size}
		x.End = x.First + 1 + int32(length)%(size-x.First)
		off, end := ds.OutIndexSpan(i, j, x)
		got, base, err := ds.LoadOutIndexSpanScratch(i, j, x, &Scratch{})
		if err != nil {
			wantCorruptClass(t, err)
			return
		}
		if base != int(off) || !bytes.Equal(got, honest[frameHeaderLen+off:frameHeaderLen+end]) {
			t.Fatalf("extent %+v of %s with byte %d ^ %#x: returned %d bytes from %d, not the %d uncorrupted ones from %d", x, name, int(pos)%len(bad), xor, len(got), base, end-off, off)
		}
	})
}
