package blockstore

import (
	"bytes"
	"errors"
	"testing"

	"husgraph/internal/storage"
)

// The decode paths face bytes that crossed a disk: any of them may be
// truncated, bit-flipped, or adversarial. The contract fuzzed here is the
// one the engine relies on — decoding never panics, never over-reads, and
// failures surface as storage.ErrCorrupt-class errors the retry machinery
// refuses to retry.

// wantCorruptClass fails the test when err is non-nil but not
// ErrCorrupt-class.
func wantCorruptClass(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("decode error %v is not storage.ErrCorrupt-class", err)
	}
}

// fuzzGV drives the one CodecVarint decoder over arbitrary bytes: it may
// only fail ErrCorrupt-class, and whatever it accepts is whole records
// whose keys never fall and that re-encode and decode to the same bytes
// again.
func fuzzGV(t *testing.T, data []byte, weighted bool) {
	t.Helper()
	out, err := AppendGV(nil, data, weighted)
	if err != nil {
		wantCorruptClass(t, err)
		return
	}
	step := RawRecordBytes(weighted)
	if len(out)%step != 0 {
		t.Fatalf("decoded to %d bytes, not a multiple of %d", len(out), step)
	}
	recs := rawRecs(out, weighted)
	for i := 1; i < len(recs); i++ {
		if recs[i].Nbr < recs[i-1].Nbr {
			t.Fatalf("accepted key %#x after %#x", recs[i].Nbr, recs[i-1].Nbr)
		}
	}
	again, err := AppendGV(nil, appendGV(nil, recs, weighted), weighted)
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-encode round trip broke: %v (%d vs %d bytes)", err, len(again), len(out))
	}
}

// FuzzDecodeVarint drives the one CodecVarint decoder, AppendGV, over
// bytes, and unframes the same bytes as a blob.
func FuzzDecodeVarint(f *testing.F) {
	// Valid encodings, weighted and not, and the empty one.
	recs := []Rec{{Nbr: 1, Weight: 2}, {Nbr: 7, Weight: 0.5}, {Nbr: 1<<16 | 3, Weight: -1}, {Nbr: 1<<16 | 3, Weight: 4}, {Nbr: 9 << 16, Weight: 1}}
	f.Add(appendGV(nil, recs, true), true)
	f.Add(appendGV(nil, recs, false), false)
	f.Add([]byte(nil), true)
	// Deltas of one to four bytes, and segments cut at destination changes.
	var long []Rec
	for k := uint32(0); k < 3*GVSegmentRecords; k++ {
		long = append(long, Rec{Nbr: (k/300)<<16 | k%300*200})
	}
	f.Add(appendGV(nil, []Rec{{Nbr: 0}, {Nbr: 200}, {Nbr: 40000}, {Nbr: 1 << 22}, {Nbr: 1<<32 - 1}}, false), false)
	f.Add(appendGV(nil, long, false), false)
	// Truncated and corrupted variants.
	full := appendGV(nil, recs, true)
	f.Add(full[:len(full)-3], true)
	mangled := append([]byte(nil), full...)
	mangled[2] ^= 0xFF
	f.Add(mangled, true)
	// Malformed headers.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, false)
	f.Add([]byte{0x80}, true)        // a count cut mid-continuation
	f.Add([]byte{0x80, 0x80}, false) // cut after the second byte
	// Checksum frames, whole, truncated and corrupt, decoded through
	// unframeBlob.
	framed := frameBlob(full)
	f.Add(framed, true)
	f.Add(framed[:len(framed)-2], true)
	flipped := append([]byte(nil), framed...)
	flipped[frameHeaderLen] ^= 0x01
	f.Add(flipped, true)

	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		fuzzGV(t, data, weighted)
		// And as a framed blob: unframe must never panic and must reject
		// anything whose CRC does not match.
		if _, err := unframeBlob("fuzz", data); err != nil {
			wantCorruptClass(t, err)
		}
	})
}

// FuzzDecodeMeta: the meta blob sizes every allocation Open makes, every
// blob's codec is read off it, its source masks decide which blocks ROP
// reads and its page CRCs check the out-index pages ROP reads. Whatever the
// bytes, decodeMeta fails ErrCorrupt-class without panicking or allocating
// beyond what the payload's length covers — nor accepting a blob stored in
// more than its raw bytes, which no builder writes, a mask no build could
// have made, or a page-CRC section of another size than the out-indices'
// pages — and a meta it accepts is one encodeMeta writes: it
// re-encodes to the same bytes.
func FuzzDecodeMeta(f *testing.F) {
	for _, format := range []Format{FormatRaw, FormatMixed} {
		ds, err := BuildOpts(memStore(), mixedGraph(true), Options{P: 4, Format: format, Weighted: true})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeMeta(ds))
		ds.InBlockBytes[1][2] = ds.BlockEdgeCount[1][2]*EdgeBytes + 1 // one byte past raw
		f.Add(encodeMeta(ds))
	}
	// Multi-word masks with a partial last word, empty blocks among them,
	// and each way of lying about them.
	ds, err := BuildOpts(memStore(), chain(300), Options{P: 4, Weighted: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeMeta(ds))
	for _, meta := range badMaskMetas(f) {
		f.Add(meta)
	}
	for _, meta := range badPageCRCMetas(f) {
		f.Add(meta)
	}
	f.Add(overflowMeta(0, 1<<31))
	f.Add(overflowMeta(1<<61, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeMeta(data)
		if err != nil {
			wantCorruptClass(t, err)
			return
		}
		if again := encodeMeta(d); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte meta re-encodes to %d different bytes", len(data), len(again))
		}
	})
}

// FuzzTileDirectory: a tile directory is what COP cuts a block by before a
// kernel checks a key. Whatever bytes and interval sizes appendTiles is
// given, it either fails ErrCorrupt-class or returns the layout's tiles, in
// (destination, source) order, whose payloads cover the bytes exactly, in
// order, from the directory's end on — and what it accepts re-encodes to
// the directory it read.
func FuzzTileDirectory(f *testing.F) {
	const wide = MaxCOOInterval + 1 // two tiles a side
	ends := func(ends ...uint32) []byte { return encodeIndex(ends) }
	f.Add([]byte(nil), uint32(4), uint32(4))                                                    // one empty tile
	f.Add([]byte(nil), uint32(wide), uint32(wide))                                              // no room for the directory
	f.Add(ends(16, 16, 16, 16), uint32(wide), uint32(wide))                                     // four empty tiles
	f.Add(append(ends(20, 24, 24, 28), make([]byte, 12)...), uint32(wide), uint32(wide))        // three tiles with keys
	f.Add(append(ends(24, 20, 24, 28), make([]byte, 12)...), uint32(wide), uint32(wide))        // ends falling
	f.Add(append(ends(20, 24, 24, 24), make([]byte, 12)...), uint32(wide), uint32(wide))        // the last end short of the payload
	f.Add(append(ends(20, 24, 24, 32), make([]byte, 12)...), uint32(wide), uint32(wide))        // an end past the payload
	f.Add(append(ends(8, 24, 24, 28), make([]byte, 12)...), uint32(wide), uint32(wide))         // an end inside the directory
	f.Add(make([]byte, 8), uint32(MaxCOOInterval), uint32(MaxCOOInterval))                      // one tile, no directory
	f.Add(append(ends(12, 16, 20), make([]byte, 8)...), uint32(2*MaxCOOInterval+1), uint32(10)) // a column of three tiles
	f.Add(ends(16, 16), uint32(wide), uint32(wide))                                             // a directory cut short
	f.Add(encodeIndex(make([]uint32, 16)), uint32(4*MaxCOOInterval), uint32(4*MaxCOOInterval))  // sixteen tiles, ends zero

	f.Fuzz(func(t *testing.T, data []byte, dsts, srcs uint32) {
		dsts, srcs = dsts%(4*MaxCOOInterval+2), srcs%(4*MaxCOOInterval+2)
		tiles, err := appendTiles(nil, int(dsts), int(srcs), data)
		if err != nil {
			wantCorruptClass(t, err)
			return
		}
		rows, cols := tileSpan(int(dsts)), tileSpan(int(srcs))
		if len(tiles) != rows*cols {
			t.Fatalf("%d tiles over %d × %d", len(tiles), rows, cols)
		}
		at := tileDirBytes(int(dsts), int(srcs))
		var dir []uint32
		for k, tile := range tiles {
			a, b := k/cols*MaxCOOInterval, k%cols*MaxCOOInterval
			if tile.DstLo != a || tile.DstHi != min(a+MaxCOOInterval, int(dsts)) || tile.SrcLo != b || tile.SrcHi != min(b+MaxCOOInterval, int(srcs)) {
				t.Fatalf("tile %d covers destinations [%d,%d), sources [%d,%d) of %d × %d", k, tile.DstLo, tile.DstHi, tile.SrcLo, tile.SrcHi, dsts, srcs)
			}
			if len(tile.Payload) > 0 && &tile.Payload[0] != &data[at] {
				t.Fatalf("tile %d does not start at byte %d", k, at)
			}
			at += len(tile.Payload)
			dir = append(dir, uint32(at))
		}
		if at != len(data) {
			t.Fatalf("tiles cover %d of %d bytes", at, len(data))
		}
		if len(tiles) > 1 && !bytes.Equal(encodeIndex(dir), data[:4*len(tiles)]) {
			t.Fatalf("directory %x re-encodes as %x", data[:4*len(tiles)], encodeIndex(dir))
		}
	})
}
