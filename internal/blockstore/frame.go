package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"husgraph/internal/storage"
)

// Checksum frames. Every blob a build (and PutAux) writes is wrapped in a
// fixed header carrying a CRC32C of the payload, so silent corruption — a
// flipped bit on the platter, a torn write that survived a crash — is
// *detected* at read time instead of decoded into garbage values that
// quietly poison a multi-hour run.
//
// Layout (little endian):
//
//	[0:4)   magic "HUSF"
//	[4]     version 1
//	[5:9)   CRC32C (Castagnoli) of the payload
//	[9:17)  payload length in bytes
//	[17:]   payload
//
// Every blob of every store has this one frame. It says nothing about how
// the payload is encoded: a block's or index's codec follows from the
// stored size the meta records for it (codecOf). The CRC covers the payload
// as stored — for a compressed block the *compressed* bytes — so corruption
// is detected before any decode runs and the fault taxonomy is unchanged: a
// bad frame and a bad varint stream both surface as storage.ErrCorrupt.
// Readers reject any other version as corrupt rather than guessing. There
// is no unframed mode: Open refuses a store whose meta blob carries no frame
// and says to rebuild it.
//
// Selective reads (ROP's ReadAt range loads) shift their offsets past the
// header but cannot verify the whole-frame checksum. An out-index's page
// span is checked instead against the CRC32C the meta records per PageBytes
// page (DESIGN.md §4p). A record run is not: what its consumer checks is
// that its sections cut it at whole records and that every neighbour they
// name exists (DESIGN.md §4b), and a flip that survives both is not
// detected.
const (
	frameMagic     = "HUSF"
	frameVersion   = 1
	frameHeaderLen = 17
)

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// frameBlob wraps payload in the checksummed frame.
func frameBlob(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf, frameMagic)
	buf[4] = frameVersion
	binary.LittleEndian.PutUint32(buf[5:], crc32.Checksum(payload, crc32cTable))
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(payload)))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// unframeBlob validates name's frame and returns the stored payload
// (aliasing buf's storage). All validation failures wrap storage.ErrCorrupt.
func unframeBlob(name string, buf []byte) ([]byte, error) {
	fail := func(msg string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("blockstore: %s: %s: %w", name, fmt.Sprintf(msg, args...), storage.ErrCorrupt)
	}
	if len(buf) < frameHeaderLen {
		return fail("frame truncated at %d bytes", len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return fail("bad frame magic % x", buf[:4])
	}
	if v := buf[4]; v != frameVersion {
		return fail("unsupported frame version %d", v)
	}
	wantLen := binary.LittleEndian.Uint64(buf[9:])
	payload := buf[frameHeaderLen:]
	if uint64(len(payload)) != wantLen {
		return fail("payload %d bytes, frame declares %d", len(payload), wantLen)
	}
	wantCRC := binary.LittleEndian.Uint32(buf[5:])
	if got := crc32.Checksum(payload, crc32cTable); got != wantCRC {
		return fail("CRC32C mismatch: computed %08x, frame declares %08x", got, wantCRC)
	}
	return payload, nil
}
