package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync/atomic"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// On-disk sizes. M and N follow the paper's Table 1: M is the size of an
// edge structure inside a block (the other endpoint plus the weight) and N
// the size of a vertex value record.
const (
	// EdgeBytes is M: one block edge record (neighbor uint32 + weight
	// float32).
	EdgeBytes = 8
	// IndexEntryBytes is one per-vertex offset entry in a block index.
	IndexEntryBytes = 4
	// VertexValueBytes is N: one vertex value (float64).
	VertexValueBytes = 8
)

// Rec is one block edge record as a build buckets it before encoding: the
// neighbor on the other side of the block's indexed vertex, plus the edge
// weight. Nothing loaded from a store is a Rec — loaders hand out packed
// records (RawRec).
type Rec struct {
	Nbr    graph.VertexID
	Weight float32
}

// encodeIndex serializes a per-vertex offset index (edge-count prefix sums,
// len = interval size + 1).
func encodeIndex(idx []uint32) []byte {
	buf := make([]byte, len(idx)*IndexEntryBytes)
	for i, v := range idx {
		binary.LittleEndian.PutUint32(buf[i*IndexEntryBytes:], v)
	}
	return buf
}

// checkOutIndex holds an out-index read whole to its one shape, entries
// offsets of IndexEntryBytes each: offset k is the little-endian uint32 at
// 4k. Any other length is storage.ErrCorrupt-class. The offsets are not
// checked against each other or the block: ROP checks the few it reads
// (core/rop.go), so a lookup stays O(1), not O(interval).
func checkOutIndex(buf []byte, entries int) error {
	if want := entries * IndexEntryBytes; len(buf) != want {
		return fmt.Errorf("out-index of %d bytes, want %d entries of %d: %w", len(buf), entries, IndexEntryBytes, storage.ErrCorrupt)
	}
	return nil
}

// Blob names. Block (i,j) always means "edges from interval i to interval
// j"; the out-block is indexed by source (resident in i's out-shard), the
// in-block by destination (resident in j's in-shard).
func outBlockName(i, j int) string { return fmt.Sprintf("ob/%d.%d", i, j) }
func outIndexName(i, j int) string { return fmt.Sprintf("oi/%d.%d", i, j) }
func inBlockName(i, j int) string  { return fmt.Sprintf("ib/%d.%d", i, j) }

const metaName = "meta"

// blobKind selects one of a cell's three blobs.
type blobKind int

const (
	blobOutBlock blobKind = iota
	blobOutIndex
	blobInBlock
)

var blobNameFuncs = [...]func(i, j int) string{outBlockName, outIndexName, inBlockName}

// blobNames holds the P×P grids of block and index blob names, formatted
// once per store: the read paths look a name up per load instead of
// building it.
type blobNames struct {
	p    int
	grid [len(blobNameFuncs)][]string
}

func newBlobNames(p int) *blobNames {
	n := &blobNames{p: p}
	for k, format := range blobNameFuncs {
		n.grid[k] = make([]string, p*p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				n.grid[k][i*p+j] = format(i, j)
			}
		}
	}
	return n
}

// name returns the kind-k blob name of cell (i,j). A cell outside the
// layout (which no blob backs) gets the freshly formatted name, so a bad
// coordinate still surfaces as the store's not-found error; so does a
// DualStore assembled without a grid.
func (n *blobNames) name(k blobKind, i, j int) string {
	if n != nil && uint(i) < uint(n.p) && uint(j) < uint(n.p) {
		return n.grid[k][i*n.p+j]
	}
	return blobNameFuncs[k](i, j)
}

// metaMagic marks the meta layout below. A meta under any other magic was
// written by an older build, and Open refuses it (errOlderStore): "HUSJ" is
// this layout with a grid of per-block destination counts, whose stores
// over intervals wider than 16 bits kept packed records behind in-indices
// (ii/) where this one keeps tiles, "HUSI" that with a grid of in-index
// stored sizes and a flag for CodecCOO in-blocks, whose mixed stores kept
// varint sections behind varint in-indices, "HUSH" that over out-blocks of
// global destinations, "HUSG" that from before CodecCOO, "HUSF" that with
// stored-size grids for the out-blocks and out-indices, which a mixed store
// could then compress, "HUSE" without the out-index page CRCs, "HUSD"
// without the source masks.
const metaMagic = "HUSK"

// metaHeaderLen is the magic and the vertex count, interval count and flags
// word that follow it, whose one bit says the records carry weights.
const metaHeaderLen = 4 + 3*8

const metaWeighted = 1

// metaGrids are the P×P int64 grids a meta records, in order.
func metaGrids(d *DualStore) []*[][]int64 {
	return []*[][]int64{&d.BlockEdgeCount, &d.InBlockBytes}
}

// encodeMeta serializes the DualStore metadata: layout and flags, per-vertex
// degrees, per-block edge counts, per in-block its stored payload size, then
// — row-major, nonempty blocks only —
// every out-block's source mask, ⌈Size(i)/64⌉ little-endian words,
// and last — row-major — the CRC32C of each PageBytes page of every
// out-index, ⌈(Size(i)+1)·4/PageBytes⌉ little-endian words. The row view is
// stored raw, so its sizes follow from the edge counts and the layout and
// are not recorded. So a store written by a build can be reopened, every
// in-block's codec read off the layout and its stored size (InCodec), ROP
// told which blocks an active source has an edge in, and a page of an
// out-index checked on its own. The predictor prices I/O from the same
// sizes and masks.
func encodeMeta(d *DualStore) []byte {
	p := d.Layout.P
	n := d.Layout.NumVertices
	grids := metaGrids(d)
	buf := make([]byte, 0, metaHeaderLen+n*8+len(grids)*p*p*8+p*n/8+4*p*((n+p)*IndexEntryBytes/PageBytes+p))
	buf = append(buf, metaMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	flags := uint64(0)
	if d.Weighted {
		flags |= metaWeighted
	}
	buf = binary.LittleEndian.AppendUint64(buf, flags)
	for v := 0; v < n; v++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.OutDegrees[v]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.InDegrees[v]))
	}
	for _, m := range grids {
		for _, row := range *m {
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
	}
	for _, row := range d.SourceMasks {
		for _, mask := range row {
			for _, w := range mask {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	for _, row := range d.OutIndexPageCRCs {
		for _, crcs := range row {
			for _, c := range crcs {
				buf = binary.LittleEndian.AppendUint32(buf, c)
			}
		}
	}
	return buf
}

// decodeMeta parses metadata written by encodeMeta into a DualStore shell
// (no store attached yet). The payload passed its CRC, but that only says
// the bytes are the ones some writer framed: every refusal is
// storage.ErrCorrupt-class, and nothing is sized from a header field before
// the payload's own length has vouched for it. The source masks are held to
// what a build makes of an out-index: one per nonempty block, no bit past
// the interval, at least one live source and no more than the block has
// edges. Whether each bit matches its out-index is not checked here — that
// would read every index at Open; ROP refuses a live bit over an empty
// section where it reads one (core/rop.go), and otherwise a mask is trusted
// as far as the CRC it shares with BlockEdgeCount (DESIGN.md §4o). The page
// CRCs are held to their count, one per page of each out-index; a wrong value
// shows where the page it covers is read (DESIGN.md §4p).
func decodeMeta(buf []byte) (*DualStore, error) {
	fail := func(format string, args ...any) (*DualStore, error) {
		return nil, fmt.Errorf("blockstore: bad meta: %w: %w", fmt.Errorf(format, args...), storage.ErrCorrupt)
	}
	if len(buf) < len(metaMagic) || string(buf[:len(metaMagic)]) != metaMagic {
		return fail("%w", errOlderStore)
	}
	if len(buf) < metaHeaderLen {
		return fail("header truncated at %d bytes", len(buf))
	}
	nv := binary.LittleEndian.Uint64(buf[4:])
	np := binary.LittleEndian.Uint64(buf[12:])
	flags := binary.LittleEndian.Uint64(buf[20:])
	if flags > metaWeighted {
		return fail("bad flags word %#x", flags)
	}
	// Vertex IDs are uint32 and NewLayout never keeps more intervals than
	// vertices; an empty graph keeps the P it was given.
	if nv > math.MaxUint32 || np < 1 || (nv > 0 && np > nv) {
		return fail("%d vertices in %d intervals", nv, np)
	}
	d := &DualStore{Layout: Layout{NumVertices: int(nv), P: int(np)}, Weighted: flags&metaWeighted != 0, retries: new(atomic.Int64)}
	grids := metaGrids(d)
	cell := uint64(len(grids) * 8)
	// np·np·cell is compared by division first, so the product cannot wrap.
	// The masks and page CRCs follow the grids; their length is checked once
	// the grids that size them are read.
	if size := uint64(len(buf)); np > size/cell/np || metaHeaderLen+nv*8+np*np*cell > size {
		return fail("length %d does not fit %d vertices in %d intervals", len(buf), nv, np)
	}
	n, p := int(nv), int(np)
	d.names = newBlobNames(p)
	d.OutDegrees = make([]int32, n)
	d.InDegrees = make([]int32, n)
	off := metaHeaderLen
	for v := 0; v < n; v++ {
		d.OutDegrees[v] = int32(binary.LittleEndian.Uint32(buf[off:]))
		d.InDegrees[v] = int32(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
	}
	for _, m := range grids {
		*m = alloc2D(p)
		for _, row := range *m {
			for j := range row {
				row[j] = int64(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
		}
	}
	// No builder stores an in-block in more than its CodecCOO bytes, nor a
	// count or size below zero. The row view is raw: its sizes are derived.
	words := 0 // of the masks: ⌈Size(i)/64⌉ per nonempty block
	pages := 0 // of the page CRCs: ⌈(Size(i)+1)·4/PageBytes⌉ per out-index
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for _, m := range grids {
				if (*m)[i][j] < 0 {
					return fail("cell (%d,%d) records a negative count or size", i, j)
				}
			}
			if d.InBlockBytes[i][j] > d.inRawBytes(i, j) {
				return fail("cell (%d,%d) stores more than its CodecCOO bytes", i, j)
			}
			if d.BlockEdgeCount[i][j] > 0 {
				words += maskWords(d.Layout.Size(i))
			}
		}
		pages += p * indexPages(d.OutIndexBytes(i, 0))
	}
	// The two sections' sizes follow from the grids just validated: a byte
	// more is a mask for a block that has no edges, a byte less a nonempty
	// block without a mask or an out-index page without a CRC. Only then is
	// anything allocated for them.
	if rest := len(buf) - off; rest != words*8+pages*4 {
		return fail("%d bytes of source masks and page CRCs, want %d for the nonempty blocks and %d for the out-index pages", rest, words*8, pages*4)
	}
	flat := make([]uint64, words)
	for k := range flat {
		flat[k] = binary.LittleEndian.Uint64(buf[off+8*k:])
	}
	d.SourceMasks = make([][][]uint64, p)
	for i := range d.SourceMasks {
		d.SourceMasks[i] = make([][]uint64, p)
		size, w := d.Layout.Size(i), maskWords(d.Layout.Size(i))
		for j := 0; j < p; j++ {
			if d.BlockEdgeCount[i][j] == 0 {
				continue
			}
			mask := flat[:w:w]
			flat = flat[w:]
			// Every live source has at least one edge in the block, and no
			// bit names a vertex outside the interval.
			live := 0
			for _, x := range mask {
				live += bits.OnesCount64(x)
			}
			switch {
			case size%64 != 0 && mask[w-1]>>(size%64) != 0:
				return fail("block (%d,%d): source mask sets bits past the interval's %d vertices", i, j, size)
			case live == 0:
				return fail("block (%d,%d): %d edges and no live source", i, j, d.BlockEdgeCount[i][j])
			case int64(live) > d.BlockEdgeCount[i][j]:
				return fail("block (%d,%d): %d live sources for %d edges", i, j, live, d.BlockEdgeCount[i][j])
			}
			d.SourceMasks[i][j] = mask
		}
	}
	off += words * 8
	crcs := make([]uint32, pages)
	for k := range crcs {
		crcs[k] = binary.LittleEndian.Uint32(buf[off+4*k:])
	}
	d.OutIndexPageCRCs = make([][][]uint32, p)
	for i := range d.OutIndexPageCRCs {
		d.OutIndexPageCRCs[i] = make([][]uint32, p)
		n := indexPages(d.OutIndexBytes(i, 0))
		for j := 0; j < p; j++ {
			d.OutIndexPageCRCs[i][j], crcs = crcs[:n:n], crcs[n:]
		}
	}
	return d, nil
}

// maskWords is the length of a source mask over an interval of size
// vertices.
func maskWords(size int) int { return (size + 63) / 64 }

// PageBytes is the unit an out-index is checked and range-read in:
// the meta records a CRC32C per page of its payload, and ROP reads only the
// pages holding the entries its active sources use (DualStore.OutIndexSpan).
const PageBytes = 4096

// indexPages is the number of PageBytes pages a payload of stored bytes
// spans.
func indexPages(stored int64) int { return int((stored + PageBytes - 1) / PageBytes) }

// pageCRCs returns the CRC32C of each PageBytes page of payload, the last
// one partial.
func pageCRCs(payload []byte) []uint32 {
	crcs := make([]uint32, 0, indexPages(int64(len(payload))))
	for off := 0; off < len(payload); off += PageBytes {
		crcs = append(crcs, crc32.Checksum(payload[off:min(off+PageBytes, len(payload))], crc32cTable))
	}
	return crcs
}
