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

// FuzzDecodeInIndex: an in-index is the one thing the COP kernels trust
// without a check of their own. Whatever bytes, interval size and payload
// length decodeInIndex is given, it either fails ErrCorrupt-class or returns
// entries a kernel can follow blind: destinations strictly ascending inside
// the interval, ends strictly ascending in whole records up to exactly the
// payload's length.
func FuzzDecodeInIndex(f *testing.F) {
	// The last argument picks what ends must be multiples of: 1, 4 or 8
	// (the records of an unweighted or a weighted store).
	three := []uint32{0, 8, 5, 16, 9, 40}
	f.Add([]byte(nil), uint16(4), uint16(0), uint8(1))                       // empty block
	f.Add([]byte(nil), uint16(4), uint16(8), uint8(1))                       // no entry, yet records
	f.Add(encodeIndex([]uint32{3, 4}), uint16(4), uint16(4), uint8(1))       // one entry
	f.Add(encodeIndex([]uint32{3, 4}), uint16(4), uint16(4), uint8(2))       // one entry, not a whole 8-byte record
	f.Add(encodeIndex(three), uint16(10), uint16(40), uint8(2))              // three entries
	f.Add(encodeIndex(three), uint16(10), uint16(40), uint8(0))              // the same, bytes
	f.Add(encodeIndex(three), uint16(9), uint16(40), uint8(1))               // local == Size
	f.Add(encodeIndex(three), uint16(10), uint16(41), uint8(0))              // the payload past the last entry
	f.Add(encodeIndex(three)[:20], uint16(10), uint16(40), uint8(1))         // odd words
	f.Add(encodeIndex([]uint32{3, 4, 3, 8}), uint16(4), uint16(8), uint8(1)) // a destination repeated
	f.Add(encodeIndex([]uint32{1, 8, 2, 8}), uint16(4), uint16(8), uint8(1)) // an empty section
	f.Add(encodeIndex([]uint32{2, 4, 1, 8}), uint16(4), uint16(8), uint8(1)) // destinations falling

	f.Fuzz(func(t *testing.T, data []byte, size, payloadLen uint16, stepSel uint8) {
		step := [...]int{1, 4, 8}[stepSel%3]
		entries, err := decodeInIndex(nil, data, int(size), int(payloadLen), step)
		if err != nil {
			wantCorruptClass(t, err)
			return
		}
		if len(entries)%2 != 0 {
			t.Fatalf("%d words accepted", len(entries))
		}
		nextLocal, prevEnd := uint32(0), uint32(0)
		for e := 0; e < len(entries); e += 2 {
			local, end := entries[e], entries[e+1]
			if local < nextLocal || local >= uint32(size) || end <= prevEnd || end > uint32(payloadLen) || int(end)%step != 0 {
				t.Fatalf("accepted entry %d = (%d, %d) after (%d, %d): size %d, payload %d, step %d", e/2, local, end, int64(nextLocal)-1, prevEnd, size, payloadLen, step)
			}
			nextLocal, prevEnd = local+1, end
		}
		if prevEnd != uint32(payloadLen) {
			t.Fatalf("accepted entries cover %d of %d payload bytes", prevEnd, payloadLen)
		}
		// What it accepts it can have written: it re-encodes to the bytes.
		if again := encodeIndex(entries); !bytes.Equal(again, data) {
			t.Fatalf("re-encode round trip broke: %x vs %x", again, data)
		}
	})
}
