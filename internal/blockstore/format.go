package blockstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"husgraph/internal/storage"
)

// Format is a build's compression policy: which encodings a build may store
// the column view — the in-blocks, which COP streams whole — in. The row
// view — out-blocks and out-indices, which ROP reads by offset — is stored
// raw in every format, an out-block as one record per edge holding its
// interval-local destination (OutRecordBytes). The format is not recorded
// anywhere — a store is one format on disk, and an in-block's codec follows
// from the layout and its stored size (DualStore.InCodec).
type Format int

const (
	// FormatRaw stores each in-block as fixed-size packed records, CodecCOO
	// keys plus a float32 weight on weighted stores, tiled where intervals
	// are wider than 16 bits (InTiles): nothing to decode, supports direct
	// slicing.
	FormatRaw Format = iota
	// FormatMixed stores each in-block's tiles as CodecVarint, group-varint
	// deltas of their CodecCOO keys, where that makes the block strictly
	// smaller, and as the CodecCOO records otherwise. COP folds either as
	// stored. The CRC32C of every frame covers the *compressed* bytes (see
	// frame.go). This is GraphMP's compressed streamed shards, and like
	// there the codec is a property of storage only: every CodecVarint tile
	// decodes back into the records FormatRaw stores (AppendGV). Its
	// out-blocks and out-indices are always byte for byte a raw store's.
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

// Codec identifies the encoding of one in-block's stored payload. The row
// view of every store is raw (OutRecordBytes). An in-block is CodecCOO, or
// in a FormatMixed store CodecVarint exactly when its stored size is below
// its CodecCOO size (codecOf); every tile of a block takes the block's
// codec.
type Codec uint8

const (
	// CodecNone is never an in-block's codec. It stays because perfbench
	// compiles against it, until ROADMAP 1b drops that call.
	CodecNone Codec = iota
	// CodecVarint stores each tile's CodecCOO keys as group-varint deltas
	// in segments (appendGV).
	CodecVarint
	// CodecCOO stores each tile as one record per edge: a little-endian
	// uint32 key — destination high, source low, both local to the tile —
	// plus the weight on weighted stores. Keys are non-decreasing:
	// (destination, source) order, repeated pairs in input order.
	CodecCOO
)

// MaxCOOInterval is the widest side of a tile, the most vertices a 16-bit
// local ID addresses: an in-block over intervals no wider is one tile, and
// a store whose intervals are no wider keeps 16-bit destinations in its
// out-blocks (OutRecordBytes).
const MaxCOOInterval = 1 << 16

// An in-block (i,j) is stored as tiles (a,b), in (a,b) order: tile (a,b)
// holds the block's edges into destinations [a·2¹⁶, (a+1)·2¹⁶) of interval
// j from sources [b·2¹⁶, (b+1)·2¹⁶) of interval i, the last tile of a row or
// column cut at the interval's end, its keys local to the tile. So a
// destination's chain visits tiles (a,0), (a,1), … in ascending source
// order. A block of more than one tile starts with its tile directory, one
// little-endian uint32 per tile: the payload offset the tile ends at, the
// first tile starting where the directory ends. A block of one tile — every
// block of a store whose intervals fit 16 bits — has no directory.

// tileSpan is the number of tiles an interval of size vertices is cut into:
// one at least.
func tileSpan(size int) int { return max(1, (size+MaxCOOInterval-1)/MaxCOOInterval) }

// tileDirBytes is the size of the tile directory of an in-block whose
// destination interval holds dsts vertices and source interval srcs: 0 for
// a block of one tile.
func tileDirBytes(dsts, srcs int) int {
	if t := tileSpan(dsts) * tileSpan(srcs); t > 1 {
		return 4 * t
	}
	return 0
}

// Tile is one tile of an in-block, as InTiles slices it out: its
// destinations [DstLo, DstHi) local to the block's destination interval,
// its sources [SrcLo, SrcHi) local to the source interval, and its keys in
// the block's codec, local to the tile.
type Tile struct {
	DstLo, DstHi, SrcLo, SrcHi int
	Payload                    []byte
}

// appendTiles cuts the payload of an in-block from an interval of srcs
// vertices into one of dsts into its tiles, appended to dst. A directory
// that does not fit the payload, or whose ends fall below the tile's start
// or pass the payload, or whose last end is not the payload's length, is
// storage.ErrCorrupt-class: the tiles returned cover the payload exactly,
// in order. What a tile's keys say is checked by whoever folds them.
func appendTiles(dst []Tile, dsts, srcs int, payload []byte) ([]Tile, error) {
	rows, cols := tileSpan(dsts), tileSpan(srcs)
	if rows*cols == 1 {
		return append(dst, Tile{DstHi: dsts, SrcHi: srcs, Payload: payload}), nil
	}
	start := 4 * rows * cols // the directory's end
	if start > len(payload) {
		return dst, fmt.Errorf("a %d-tile directory in a %d-byte payload: %w", rows*cols, len(payload), storage.ErrCorrupt)
	}
	for t := 0; t < rows*cols; t++ {
		end := int(binary.LittleEndian.Uint32(payload[4*t:]))
		if end < start || end > len(payload) {
			return dst, fmt.Errorf("tile %d of %d ends at byte %d, before its start %d or past the payload's %d bytes: %w", t, rows*cols, end, start, len(payload), storage.ErrCorrupt)
		}
		a, b := t/cols*MaxCOOInterval, t%cols*MaxCOOInterval
		dst = append(dst, Tile{DstLo: a, DstHi: min(a+MaxCOOInterval, dsts), SrcLo: b, SrcHi: min(b+MaxCOOInterval, srcs), Payload: payload[start:end]})
		start = end
	}
	if start != len(payload) {
		return dst, fmt.Errorf("the tiles end at byte %d of a %d-byte payload: %w", start, len(payload), storage.ErrCorrupt)
	}
	return dst, nil
}

// codecOf is the codec of an in-block stored in stored bytes whose CodecCOO
// form — its records and tile directory — takes raw. The builder keeps
// CodecVarint only where it is strictly smaller (encodeBucket), so the
// stored size the meta records is the codec: nothing else on disk names it.
func codecOf(stored, raw int64) Codec {
	if stored < raw {
		return CodecVarint
	}
	return CodecCOO
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

// encodeVertexRecs serializes one vertex's records as packed fixed-size
// records, appending to dst. A record's neighbour takes idBytes bytes: 4,
// or 2 in the out-blocks of a store whose intervals fit 16 bits
// (OutRecordBytes); a CodecCOO record's neighbour is its key. Unweighted
// encodings drop the weight field entirely — the compactness real systems
// exploit for PageRank, BFS and WCC (§4.4 credits HUS-Graph's "more
// space-efficient" storage).
func encodeVertexRecs(dst []byte, recs []Rec, idBytes int, weighted bool) []byte {
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
}

// A CodecVarint in-block (DESIGN.md §4f) is its CodecCOO keys — local
// destination << 16 | local source, non-decreasing — as deltas, cut into
// segments. A segment is
//
//	uvarint(records) uvarint(key bytes) key bytes [records float32 weights]
//
// whose key bytes are groups of four deltas, the last group of a segment
// holding the one to three left over: one tag byte, two bits per delta
// (its byte length − 1, the first delta in the low bits), then each delta
// in that many little-endian bytes. A segment's first delta is taken from
// key 0, so it is the segment's first key; the weights, on a weighted
// store, follow the keys in order. A segment ends at the first destination
// change after GVSegmentRecords records, so every segment but the first
// starts at a destination above the key before it, and a COP fold splits
// a block at segment starts without decoding it (core's gvChunks).

// GVSegmentRecords is the fewest records a segment of a CodecVarint
// in-block holds, but the block's last.
const GVSegmentRecords = 1024

// gvLen is the byte length of delta x in a group: 1 to 4.
func gvLen(x uint32) int { return 1 + (bits.Len32(x|1)-1)/8 }

// appendGV appends the CodecVarint encoding of recs, whose neighbours are
// CodecCOO keys in non-decreasing order, to dst.
func appendGV(dst []byte, recs []Rec, weighted bool) []byte {
	for len(recs) > 0 {
		n := min(GVSegmentRecords, len(recs))
		for n < len(recs) && recs[n].Nbr>>16 == recs[n-1].Nbr>>16 {
			n++
		}
		seg := recs[:n]
		recs = recs[n:]
		size, prev := (n+3)/4, uint32(0)
		for _, r := range seg {
			if r.Nbr < prev {
				panic(fmt.Sprintf("blockstore: keys not sorted (%#x after %#x)", r.Nbr, prev))
			}
			size += gvLen(r.Nbr - prev)
			prev = r.Nbr
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.AppendUvarint(dst, uint64(size))
		prev = 0
		for g := 0; g < n; g += 4 {
			at := len(dst)
			dst = append(dst, 0)
			for s := 0; s < 4 && g+s < n; s++ {
				delta := seg[g+s].Nbr - prev
				prev = seg[g+s].Nbr
				l := gvLen(delta)
				dst[at] |= byte(l-1) << (2 * s)
				dst = binary.LittleEndian.AppendUint32(dst, delta)[:len(dst)+l]
			}
		}
		if weighted {
			for _, r := range seg {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r.Weight))
			}
		}
	}
	return dst
}

// GVSegment is one segment of a CodecVarint in-block, as ParseGVSegment
// finds it.
type GVSegment struct {
	// Records is the segment's key count, at least one.
	Records int
	// Keys are its group-varint key bytes, Weights its float32 weights on a
	// weighted store, else empty.
	Keys, Weights []byte
	// End is the payload offset the next segment starts at.
	End int
}

// ParseGVSegment reads the header of the CodecVarint segment at payload
// offset off and slices the segment out. A header that is malformed,
// counts no record, counts more records than key bytes — each delta takes
// one at least — or more bytes than the payload holds is
// storage.ErrCorrupt-class. Whether the key bytes hold the records the
// header counts is checked by whoever decodes them: AppendGV, or the COP
// fold.
func ParseGVSegment(payload []byte, off int, weighted bool) (GVSegment, error) {
	records, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return GVSegment{}, fmt.Errorf("blockstore: segment at byte %d: malformed record count: %w", off, storage.ErrCorrupt)
	}
	keyBytes, m := binary.Uvarint(payload[off+n:])
	if m <= 0 {
		return GVSegment{}, fmt.Errorf("blockstore: segment at byte %d: malformed key byte count: %w", off, storage.ErrCorrupt)
	}
	start := off + n + m
	rest := uint64(len(payload) - start)
	weights := uint64(0)
	if weighted {
		weights = 4 * records
	}
	if records == 0 || records > keyBytes || keyBytes > rest || weights > rest-keyBytes {
		return GVSegment{}, fmt.Errorf("blockstore: segment at byte %d: %d records in %d key bytes, %d payload bytes left: %w", off, records, keyBytes, rest, storage.ErrCorrupt)
	}
	keysEnd := start + int(keyBytes)
	end := keysEnd + int(weights)
	return GVSegment{Records: int(records), Keys: payload[start:keysEnd], Weights: payload[keysEnd:end], End: end}, nil
}

// GVFirstKey returns the first key of a segment's key bytes — its first
// delta — or ok = false where the first group's tag or delta runs past them.
func GVFirstKey(keys []byte) (key uint64, ok bool) {
	if len(keys) == 0 {
		return 0, false
	}
	l := int(keys[0]&3) + 1
	if len(keys) < 1+l {
		return 0, false
	}
	for b := l; b >= 1; b-- {
		key = key<<8 | uint64(keys[b])
	}
	return key, true
}

// AppendGV decodes a CodecVarint in-block into the CodecCOO records of its
// raw twin, RawRecordBytes(weighted) each, appending them to dst. It is the
// one decoder of the layout: the COP kernels fold a block as stored, and
// must stop where it does and fold what it decodes (core's FuzzFoldGV).
// Decoding stops, storage.ErrCorrupt-class, at the first record that breaks
// a rule — a group's tag or delta running past its segment's key bytes, a
// key past 2³², a segment but the first not starting at a destination above
// the key before it — or at a malformed header (ParseGVSegment) or a
// segment whose groups leave key bytes over; the records decoded before it
// are returned with the error.
func AppendGV(dst, payload []byte, weighted bool) ([]byte, error) {
	var last uint64 // the key before the segment
	for off, r := 0, 0; off < len(payload); {
		seg, err := ParseGVSegment(payload, off, weighted)
		if err != nil {
			return dst, err
		}
		keys, key, p, tag := seg.Keys, uint64(0), 0, byte(0)
		for k := 0; k < seg.Records; k, r = k+1, r+1 {
			if k%4 == 0 {
				if p >= len(keys) {
					return dst, gvError(r, "its group's tag lies past the segment's %d key bytes", len(keys))
				}
				tag, p = keys[p], p+1
			}
			l := int(tag>>(2*(k%4))&3) + 1
			if p+l > len(keys) {
				return dst, gvError(r, "its %d-byte delta runs past the segment's %d key bytes", l, len(keys))
			}
			delta := uint64(0)
			for b := p + l - 1; b >= p; b-- {
				delta = delta<<8 | uint64(keys[b])
			}
			p += l
			if key += delta; key > math.MaxUint32 {
				return dst, gvError(r, "its key %#x lies past 2³²", key)
			}
			if k == 0 && r > 0 && key>>16 <= last>>16 {
				return dst, gvError(r, "it starts a segment at key %#x, not at a destination above the key %#x before it", key, last)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(key))
			if weighted {
				dst = append(dst, seg.Weights[4*k:4*k+4]...)
			}
		}
		if p != len(keys) {
			return dst, gvError(r, "the segment before it leaves %d of its %d key bytes undecoded", len(keys)-p, len(keys))
		}
		last, off = key, seg.End
	}
	return dst, nil
}

// gvError is AppendGV's refusal of record r.
func gvError(r int, format string, args ...any) error {
	return fmt.Errorf("blockstore: record %d: %s: %w", r, fmt.Sprintf(format, args...), storage.ErrCorrupt)
}

// RawRecordBytes returns the byte size of one record of a column view
// stored raw: a CodecCOO key, plus the weight.
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
	if l.narrow() {
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
