package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"husgraph/internal/storage"
)

// Checksum frames. Every blob Build (and PutAux) writes is wrapped in a
// fixed header carrying a CRC32C of the payload, so silent corruption — a
// flipped bit on the platter, a torn write that survived a crash — is
// *detected* at read time instead of decoded into garbage values that
// quietly poison a multi-hour run.
//
// Version 1 layout (little endian):
//
//	[0:4)   magic "HUSF"
//	[4]     version 1
//	[5:9)   CRC32C (Castagnoli) of the payload
//	[9:17)  payload length in bytes
//	[17:]   payload
//
// FormatRaw stores write version 1. Version 2 (written by FormatMixed
// stores) appends one codec tag byte:
//
//	[0:17)  as version 1
//	[17]    codec tag (CodecNone | CodecVarint)
//	[18:]   payload
//
// The CRC covers the payload as stored — i.e. the *compressed* bytes — so
// corruption is detected before any decode runs and the fault taxonomy is
// unchanged: a bad frame and a bad varint stream both surface as
// storage.ErrCorrupt. The header is versioned so layouts can coexist;
// readers reject versions they do not understand as corrupt rather than
// guessing. There is no unframed mode: Open refuses a store whose meta blob
// carries no frame and says to rebuild it.
//
// Selective block reads (ROP's ReadAt range loads) shift their offsets past
// the header but cannot verify the whole-frame checksum — integrity there
// is only validated on full-blob loads, the same trade-off real block
// stores make for sub-block reads. What a range read's consumer does check
// is that the bytes decode and that every neighbour they name exists
// (DESIGN.md §4b); a flip that survives both is not detected.
const (
	frameMagic       = "HUSF"
	frameVersion     = 1
	frameVersion2    = 2
	frameHeaderLen   = 17
	frameHeaderLenV2 = 18
)

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// frameBlob wraps payload in a version-1 checksummed frame.
func frameBlob(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf, frameMagic)
	buf[4] = frameVersion
	binary.LittleEndian.PutUint32(buf[5:], crc32.Checksum(payload, crc32cTable))
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(payload)))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// frameBlobV2 wraps payload (already encoded with codec c) in a version-2
// frame carrying c's tag. The CRC is over the stored — compressed — bytes.
func frameBlobV2(payload []byte, c Codec) []byte {
	buf := make([]byte, frameHeaderLenV2+len(payload))
	copy(buf, frameMagic)
	buf[4] = frameVersion2
	binary.LittleEndian.PutUint32(buf[5:], crc32.Checksum(payload, crc32cTable))
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(payload)))
	buf[17] = byte(c)
	copy(buf[frameHeaderLenV2:], payload)
	return buf
}

// unframeBlob validates name's frame and returns the stored payload
// (aliasing buf's storage) plus the frame's codec tag — CodecNone for
// version-1 frames. All validation failures wrap storage.ErrCorrupt.
func unframeBlob(name string, buf []byte) ([]byte, Codec, error) {
	fail := func(msg string, args ...any) ([]byte, Codec, error) {
		return nil, CodecNone, fmt.Errorf("blockstore: %s: %s: %w", name, fmt.Sprintf(msg, args...), storage.ErrCorrupt)
	}
	if len(buf) < frameHeaderLen {
		return fail("frame truncated at %d bytes", len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return fail("bad frame magic % x", buf[:4])
	}
	hdr := frameHeaderLen
	codec := CodecNone
	switch v := buf[4]; v {
	case frameVersion:
	case frameVersion2:
		if len(buf) < frameHeaderLenV2 {
			return fail("v2 frame truncated at %d bytes", len(buf))
		}
		hdr = frameHeaderLenV2
		codec = Codec(buf[17])
		if codec >= numCodecs {
			return fail("unknown codec tag %d", buf[17])
		}
	default:
		return fail("unsupported frame version %d", v)
	}
	wantLen := binary.LittleEndian.Uint64(buf[9:])
	payload := buf[hdr:]
	if uint64(len(payload)) != wantLen {
		return fail("payload %d bytes, frame declares %d", len(payload), wantLen)
	}
	wantCRC := binary.LittleEndian.Uint32(buf[5:])
	if got := crc32.Checksum(payload, crc32cTable); got != wantCRC {
		return fail("CRC32C mismatch: computed %08x, frame declares %08x", got, wantCRC)
	}
	return payload, codec, nil
}
