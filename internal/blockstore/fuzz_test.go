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

// fuzzSection drives the one section decoder over arbitrary bytes: it may
// only fail ErrCorrupt-class, and whatever it accepts is whole packed
// records that — when their neighbors come out strictly sorted, as every
// section Build writes does — re-encode under c and decode to the same
// bytes again.
func fuzzSection(t *testing.T, data []byte, c Codec, weighted bool) {
	t.Helper()
	out, err := appendSection(nil, data, c, weighted)
	if err != nil {
		wantCorruptClass(t, err)
		return
	}
	if len(out)%RawRecordBytes(weighted) != 0 {
		t.Fatalf("%v section decoded to %d bytes, not a multiple of %d", c, len(out), RawRecordBytes(weighted))
	}
	recs := rawRecs(out, weighted)
	for i := 1; i < len(recs); i++ {
		if recs[i].Nbr <= recs[i-1].Nbr {
			return // decodable but not canonical: the encoder refuses it
		}
	}
	again, err := appendSection(nil, encodeVertexRecsCodec(nil, recs, c, weighted, nil), c, weighted)
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("%v re-encode round trip broke: %v (%d vs %d bytes)", c, err, len(again), len(out))
	}
}

func FuzzDecodeVarint(f *testing.F) {
	// Valid varint section encodings, weighted and not.
	recs := []Rec{{Nbr: 1, Weight: 2}, {Nbr: 7, Weight: 0.5}, {Nbr: 1000000, Weight: -1}}
	var rle []byte
	f.Add(encodeVertexRecsCodec(nil, recs, CodecVarint, true, &rle), true)
	f.Add(encodeVertexRecsCodec(nil, recs, CodecVarint, false, &rle), false)
	// A valid varint index stream.
	f.Add(encodeIndexCodec([]uint32{0, 8, 8, 24, 400}, CodecVarint), false)
	// Truncated and corrupted variants.
	full := encodeVertexRecsCodec(nil, recs, CodecVarint, true, &rle)
	f.Add(full[:len(full)-3], true)
	mangled := append([]byte(nil), full...)
	mangled[0] ^= 0xFF
	f.Add(mangled, true)
	// Overlong/overflowing varints.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, false)
	f.Add([]byte{0x80}, true) // varint cut mid-continuation
	// Truncated/corrupt checksum frames, decoded through unframeBlob.
	framed := frameBlobV2(full, CodecVarint)
	f.Add(framed[:len(framed)-2], true)
	flipped := append([]byte(nil), framed...)
	flipped[frameHeaderLenV2] ^= 0x01
	f.Add(flipped, true)

	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		fuzzSection(t, data, CodecVarint, weighted)
		// The same bytes as a varint index stream.
		if _, err := decodeIndexCodecInto(nil, data, CodecVarint); err != nil {
			wantCorruptClass(t, err)
		}
		// And as a framed blob: unframe must never panic and must reject
		// anything whose CRC does not match.
		if payload, codec, err := unframeBlob("fuzz", data); err == nil {
			if codec >= numCodecs {
				t.Fatalf("unframeBlob accepted codec %d", codec)
			}
			_ = payload
		} else {
			wantCorruptClass(t, err)
		}
	})
}

func FuzzDecodeRLE(f *testing.F) {
	// Valid RLE streams: runs, literals, boundaries at the group limits.
	for _, src := range [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, 300),
		append(bytes.Repeat([]byte{5}, 130), 1, 2, 3),
		bytes.Repeat([]byte{1, 2}, 100),
	} {
		f.Add(appendRLE(nil, src))
	}
	// A full RLE-coded weighted section.
	recs := []Rec{{Nbr: 2, Weight: 1}, {Nbr: 3, Weight: 1}, {Nbr: 9, Weight: 1}}
	var rle []byte
	f.Add(encodeVertexRecsCodec(nil, recs, CodecRLE, true, &rle))
	// Truncations and stray controls.
	enc := appendRLE(nil, bytes.Repeat([]byte{8}, 64))
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{0x7F})       // literal group header, no bytes
	f.Add([]byte{0xFF})       // max run, missing value byte
	f.Add([]byte{0x80, 0x00}) // minimal run of zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := appendUnRLE(nil, data); err == nil {
			// Expansion is bounded: each control byte yields at most
			// rleMaxRun bytes, so over-reads would show as absurd growth.
			if len(out) > len(data)*rleMaxRun {
				t.Fatalf("unRLE expanded %d bytes to %d (> %dx bound)", len(data), len(out), rleMaxRun)
			}
			// Canonical round trip: encode(decode(data)) must decode back
			// to the same bytes.
			again, err := appendUnRLE(nil, appendRLE(nil, out))
			if err != nil || !bytes.Equal(again, out) {
				t.Fatalf("RLE re-encode round trip broke: %v", err)
			}
		} else {
			wantCorruptClass(t, err)
		}
		// The same bytes as a full RLE section decode (expand + length check).
		for _, weighted := range []bool{false, true} {
			fuzzSection(t, data, CodecRLE, weighted)
		}
	})
}
