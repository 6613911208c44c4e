package blockstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"husgraph/internal/storage"
)

// Format is a build's compression policy: which encodings a build may store
// the column view — in-blocks and in-indices, which COP streams whole — in.
// The row view — out-blocks and out-indices, which ROP reads by offset — is
// stored raw in every format, an out-block as one record per edge holding
// its interval-local destination (OutRecordBytes). The format is not
// recorded anywhere — a store is one format on disk, and a blob's codec
// follows from its stored size (codecOf).
type Format int

const (
	// FormatRaw stores fixed-size packed records (neighbor uint32 behind an
	// index, or in-blocks CodecCOO where intervals fit 16 bits; plus a
	// float32 weight on weighted stores): nothing to decode, supports
	// direct slicing.
	FormatRaw Format = iota
	// FormatMixed picks a codec (none | varint) *per in-block and per
	// in-index* at build time, keeping varint only where it is strictly
	// smaller. Per-destination sections stay self-contained (delta chains
	// restart at every section boundary), so COP folds each as stored. The
	// CRC32C of every frame covers the *compressed* bytes (see frame.go).
	// This is GraphMP's compressed streamed shards, and like there the codec
	// is a property of storage only: every in-block decodes back into the
	// packed records FormatRaw stores (AppendSection). The out-blocks and
	// out-indices are byte for byte a raw store's.
	FormatMixed
)

// String names the format for reports.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses "raw" or "mixed".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "raw":
		return FormatRaw, nil
	case "mixed":
		return FormatMixed, nil
	default:
		return FormatRaw, fmt.Errorf("blockstore: unknown format %q (want raw|mixed)", s)
	}
}

// Codec identifies the encoding of one in-block's (or in-index's) stored
// payload. The row view of every store is raw (OutRecordBytes); a FormatRaw
// store's in-blocks are CodecCOO where intervals fit 16 bits, else
// CodecNone; in a FormatMixed store an in-block or in-index is CodecVarint
// exactly when its stored size is below its raw size (codecOf).
type Codec uint8

const (
	// CodecNone stores sections as packed fixed-size raw records.
	CodecNone Codec = iota
	// CodecVarint delta-gap varint encodes each section's sorted neighbor
	// IDs; weights, when stored, follow each ID as raw float32 bits.
	CodecVarint
	// CodecCOO stores an in-block as one record per edge and no in-index:
	// a little-endian uint32 key — local destination high, local source
	// low — plus the weight on weighted stores. Keys are non-decreasing:
	// (destination, source) order, repeated pairs in input order.
	CodecCOO
)

// MaxCOOInterval is the widest interval a 16-bit local ID addresses: a
// FormatRaw store whose intervals are no wider stores in-blocks CodecCOO.
const MaxCOOInterval = 1 << 16

// codecOf is the codec of a blob stored in stored bytes whose CodecNone
// encoding takes raw. The builder keeps varint only where it is strictly
// smaller (encodeBlockPayload, encodeBucket), so the stored size the meta
// records is the codec: nothing else on disk names it.
func codecOf(stored, raw int64) Codec {
	if stored < raw {
		return CodecVarint
	}
	return CodecNone
}

// String names the codec for reports and frame errors.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecVarint:
		return "varint"
	case CodecCOO:
		return "coo"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// encodeVertexRecsCodec serializes one vertex's records (sorted by
// neighbor, repeats allowed) with the given codec, appending to dst. A
// CodecNone record's neighbour takes idBytes bytes: 4, or 2 in the
// out-blocks of a store whose intervals fit 16 bits (OutRecordBytes).
// Unweighted encodings drop the weight field entirely — the compactness real
// systems exploit for PageRank, BFS and WCC (§4.4 credits HUS-Graph's "more
// space-efficient" storage). Every section is self-contained: the varint
// delta chain starts from -1, so a byte-range read of any subset of sections
// decodes without context.
func encodeVertexRecsCodec(dst []byte, recs []Rec, c Codec, idBytes int, weighted bool) []byte {
	switch c {
	case CodecNone:
		for _, r := range recs {
			if idBytes == 2 {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Nbr))
			} else {
				dst = binary.LittleEndian.AppendUint32(dst, r.Nbr)
			}
			if weighted {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r.Weight))
			}
		}
		return dst
	case CodecVarint:
		prev := int64(-1)
		var scratch [4]byte
		for _, r := range recs {
			// A repeated neighbour — a multigraph's parallel edge — is a zero
			// gap, which AppendSection and the COP kernels read back as the
			// same neighbour; only the first gap, from −1, cannot be zero.
			delta := int64(r.Nbr) - prev
			if delta < 0 {
				panic(fmt.Sprintf("blockstore: records not sorted by neighbor (%d after %d)", r.Nbr, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(delta))
			if weighted {
				binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(r.Weight))
				dst = append(dst, scratch[:]...)
			}
			prev = int64(r.Nbr)
		}
		return dst
	default:
		panic("blockstore: unknown codec")
	}
}

// AppendSection decodes one vertex's self-contained record section, stored
// with codec c, into the packed raw records its CodecNone twin stores —
// RawRecordBytes(weighted) bytes each — appending them to dst. It is the
// only section decoder: the COP fallback kernel's sections go through it;
// the specialised COP kernels fold a varint section as stored and must
// accept and produce exactly what it does (core's FuzzFoldVarint).
// Malformed input yields storage.ErrCorrupt-class errors — never a panic or
// an out-of-bounds read — so corrupt-on-disk sections surface through the
// same fault taxonomy as a bad frame CRC.
func AppendSection(dst, section []byte, c Codec, weighted bool) ([]byte, error) {
	step := RawRecordBytes(weighted)
	switch c {
	case CodecNone:
		if len(section)%step != 0 {
			return nil, fmt.Errorf("blockstore: raw payload length %d not a multiple of %d: %w", len(section), step, storage.ErrCorrupt)
		}
		return append(dst, section...), nil
	case CodecVarint:
		prev := int64(-1)
		for off := 0; off < len(section); {
			// Gaps of one to three bytes — all but a handful — are read in
			// line; binary.Uvarint takes the rest and every malformed one.
			var delta uint64
			n := 0
			if b0 := section[off]; b0 < 0x80 {
				delta, n = uint64(b0), 1
			} else if off+1 < len(section) && section[off+1] < 0x80 {
				delta, n = uint64(b0&0x7f)|uint64(section[off+1])<<7, 2
			} else if off+2 < len(section) && section[off+2] < 0x80 {
				delta, n = uint64(b0&0x7f)|uint64(section[off+1]&0x7f)<<7|uint64(section[off+2])<<14, 3
			} else if delta, n = binary.Uvarint(section[off:]); n <= 0 {
				return nil, fmt.Errorf("blockstore: corrupt varint at offset %d: %w", off, storage.ErrCorrupt)
			}
			off += n
			nbr := prev + int64(delta)
			if nbr < 0 || nbr > math.MaxUint32 {
				return nil, fmt.Errorf("blockstore: neighbor id %d out of range: %w", nbr, storage.ErrCorrupt)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(nbr))
			if weighted {
				if off+4 > len(section) {
					return nil, fmt.Errorf("blockstore: truncated weight at offset %d: %w", off, storage.ErrCorrupt)
				}
				dst = append(dst, section[off:off+4]...)
				off += 4
			}
			prev = nbr
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("blockstore: unknown codec %d: %w", c, storage.ErrCorrupt)
	}
}

// RawRecordBytes returns the byte size of one record of a column view
// stored raw: a CodecNone neighbour or a CodecCOO key, plus the weight.
func RawRecordBytes(weighted bool) int {
	if weighted {
		return EdgeBytes
	}
	return 4
}

// localIDBytes is the width of an out-block record's destination over l,
// which is local to the block's destination interval: 2 where intervals fit
// 16 bits (MaxCOOInterval), else 4.
func (l Layout) localIDBytes() int {
	if l.intervalSize() <= MaxCOOInterval {
		return 2
	}
	return 4
}

// OutRecordBytes returns the byte size of one out-block record: the
// destination, local to the block's destination interval — a little-endian
// uint16 where intervals fit 16 bits, a uint32 otherwise — then, on a
// weighted store, the float32 weight (OutRec). So 2 or 6 bytes, and 4 or 8
// over wider intervals.
func (d *DualStore) OutRecordBytes() int {
	return d.Layout.localIDBytes() + RawRecordBytes(d.Weighted) - 4
}

// OutRec decodes the out-block record at byte offset off of recs, whose
// records take step bytes (OutRecordBytes): its local destination, and its
// weight, 1 on an unweighted store.
func OutRec(recs []byte, off, step int, weighted bool) (local uint32, weight float32) {
	weight = 1
	if weighted {
		step -= 4
		weight = math.Float32frombits(binary.LittleEndian.Uint32(recs[off+step:]))
	}
	if step == 2 {
		return uint32(binary.LittleEndian.Uint16(recs[off:])), weight
	}
	return binary.LittleEndian.Uint32(recs[off:]), weight
}

// RawRec decodes the FormatRaw record at byte offset off of a block
// payload. It is the zero-copy accessor the engine's raw fast paths use to
// iterate packed records in place.
func RawRec(payload []byte, off int, weighted bool) (nbr uint32, weight float32) {
	nbr = binary.LittleEndian.Uint32(payload[off:])
	if !weighted {
		return nbr, 1
	}
	return nbr, math.Float32frombits(binary.LittleEndian.Uint32(payload[off+4:]))
}
