package blockstore

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// defaultSpillEdges is BuildStreaming's budget when the caller gives none.
const defaultSpillEdges = 1 << 20

// BuildStreaming materializes the dual-block representation from a binary
// graph stream (graph.WriteBinary format) without ever holding the whole
// edge list in memory — the preprocessing path for an edge file that does
// not fit in RAM. It is the build pass every store goes through (see build),
// fed from the reader under a budget: once spillEdges edges are held, every
// bucket is flushed to a numbered spill blob under "tmp/" in the store.
//
// Peak memory is O(max(spillEdges, largest interval's edge count)) edges per
// view; choose P so intervals fit. Spill blobs are deleted as their bucket
// is encoded, and on every error return. spillEdges <= 0 selects a default
// of 1<<20.
func BuildStreaming(store storage.Store, r io.Reader, p int, format Format, spillEdges int) (*DualStore, error) {
	return BuildStreamingOpts(store, r, Options{P: p, Format: format, Weighted: true}, spillEdges)
}

// BuildStreamingOpts is BuildStreaming with full layout options.
func BuildStreamingOpts(store storage.Store, r io.Reader, opts Options, spillEdges int) (*DualStore, error) {
	if spillEdges <= 0 {
		spillEdges = defaultSpillEdges
	}
	d, err := build(store, opts, spillEdges, func(start func(int) error, edge func(graph.Edge) error) error {
		return graph.DecodeBinary(r, func(numV int, _ uint64) error { return start(numV) }, edge)
	})
	if err != nil {
		return nil, fmt.Errorf("blockstore: streaming build: %w", err)
	}
	return d, nil
}

// build is the one way a store is written, the paper's preprocessing pass
// (§3.2): count degrees and per-block edges while copying every edge into
// the bucket of its source interval and the bucket of its destination
// interval; then, a bucket at a time, encode the row into its P out-blocks
// and the column into its P in-blocks (encodeBucket). feed supplies the
// edges: it calls start once with the vertex count, then edge per edge.
// With spillEdges > 0 the buckets are flushed to the store whenever they
// hold that many edges; 0 never spills.
func build(store storage.Store, opts Options, spillEdges int, feed func(start func(numV int) error, edge func(graph.Edge) error) error) (_ *DualStore, err error) {
	if opts.Format != FormatRaw && opts.Format != FormatMixed {
		return nil, fmt.Errorf("unknown format %d", opts.Format)
	}
	if opts.P < 1 {
		return nil, fmt.Errorf("need at least one interval, got P = %d", opts.P)
	}
	var (
		d     *DualStore
		spill *spiller
		p     int
		seen  int64
	)
	defer func() {
		if err != nil && spill != nil {
			spill.dropAll()
		}
	}()
	err = feed(func(numV int) error {
		layout := NewLayout(numV, opts.P)
		p = layout.P
		d = &DualStore{store: store, Layout: layout, Weighted: opts.Weighted, retries: new(atomic.Int64), hedges: new(atomic.Int64), dec: new(decodeCounters), names: newBlobNames(p)}
		d.OutDegrees = make([]int32, numV)
		d.InDegrees = make([]int32, numV)
		for _, m := range metaGrids(d) {
			*m = alloc2D(p)
		}
		d.SourceMasks = make([][][]uint64, p)
		d.OutIndexPageCRCs = make([][][]uint32, p)
		for i := range d.SourceMasks {
			d.SourceMasks[i] = make([][]uint64, p)
			d.OutIndexPageCRCs[i] = make([][]uint32, p)
		}
		spill = newSpiller(store, p, spillEdges)
		return nil
	}, func(e graph.Edge) error {
		if numV := uint32(len(d.OutDegrees)); e.Src >= numV || e.Dst >= numV {
			return fmt.Errorf("edge %d (%d->%d) out of range [0,%d)", seen, e.Src, e.Dst, numV)
		}
		seen++
		d.OutDegrees[e.Src]++
		d.InDegrees[e.Dst]++
		i, j := d.Layout.IntervalOf(e.Src), d.Layout.IntervalOf(e.Dst)
		d.BlockEdgeCount[i][j]++
		return spill.add(i, j, e)
	})
	if err != nil {
		return nil, err
	}

	for b := 0; b < 2*p; b++ {
		edges, err := spill.take(b)
		if err != nil {
			return nil, err
		}
		if err := d.encodeBucket(b%p, b >= p, opts.Format, edges); err != nil {
			return nil, err
		}
	}
	if err := d.putBlob(metaName, encodeMeta(d)); err != nil {
		return nil, err
	}
	return d, nil
}

// encodeBucket writes the P blocks of one bucket — row b's out-blocks
// (b, c), or with in set column b's in-blocks (c, b) — and their indices,
// and records their sizes and, for a row, each out-block's source mask, read
// off the out-index it lays out, and the page CRCs of each out-index. format
// applies to a column only, which COP streams whole; a row, which ROP reads
// by offset, is stored raw whatever the format. Each edge of
// the bucket is an (indexed vertex, neighbour) pair: a row's edges as they
// came, a column's reversed (spiller.add). Sorted by (vertex, neighbour), that is the
// (source, destination) order of an out-block and the (destination,
// source) order of an in-block — the orders Algorithms 2 and 3 require —
// and appending in order keeps each block's per-vertex slice
// neighbour-sorted.
func (d *DualStore) encodeBucket(b int, in bool, format Format, edges []graph.Edge) error {
	slices.SortFunc(edges, func(x, y graph.Edge) int {
		return cmp.Compare(uint64(x.Src)<<32|uint64(x.Dst), uint64(y.Src)<<32|uint64(y.Dst))
	})
	l := d.Layout
	lo, _ := l.Bounds(b)
	size := l.Size(b)
	cell := func(c int) (int, int) {
		if in {
			return c, b
		}
		return b, c
	}
	recs := make([][]Rec, l.P)
	perVertex := make([][]uint32, l.P)
	for c := 0; c < l.P; c++ {
		i, j := cell(c)
		recs[c] = make([]Rec, 0, d.BlockEdgeCount[i][j])
		perVertex[c] = make([]uint32, size)
	}
	pos := 0
	for local := 0; local < size; local++ {
		v := uint32(lo + local)
		for ; pos < len(edges) && edges[pos].Src == v; pos++ {
			c := l.IntervalOf(edges[pos].Dst)
			recs[c] = append(recs[c], Rec{Nbr: edges[pos].Dst, Weight: edges[pos].Weight})
			perVertex[c][local]++
		}
	}
	view, blockKind, indexKind := "row", blobOutBlock, blobOutIndex
	if in {
		view, blockKind, indexKind = "column", blobInBlock, blobInIndex
	} else {
		format = FormatRaw
	}
	if pos != len(edges) {
		return fmt.Errorf("%s %d: %d edges outside interval", view, b, len(edges)-pos)
	}
	for c := 0; c < l.P; c++ {
		i, j := cell(c)
		payload, idx := encodeBlockPayload(recs[c], perVertex[c], format, d.Weighted, in)
		if err := d.putBlob(d.names.name(blockKind, i, j), payload); err != nil {
			return err
		}
		var idxPayload []byte
		if in {
			d.InBlockBytes[i][j] = int64(len(payload))
			idxPayload = encodeInIndex(idx, CodecNone)
			if format == FormatMixed {
				if v := encodeInIndex(idx, CodecVarint); len(v) < len(idxPayload) {
					idxPayload = v // kept only where strictly smaller, as codecOf reads it
				}
			}
			d.InIndexEntries[i][j] = int64(len(idx) / 2)
			d.InIndexStoredBytes[i][j] = int64(len(idxPayload))
		} else {
			idxPayload = encodeIndex(idx)
			d.SourceMasks[i][j] = sourceMask(idx)
			d.OutIndexPageCRCs[i][j] = pageCRCs(idxPayload)
		}
		if err := d.putBlob(d.names.name(indexKind, i, j), idxPayload); err != nil {
			return err
		}
	}
	return nil
}

// encodeBlockPayload encodes one block's per-vertex sections, returning the
// stored payload and the index into it: raw records for FormatRaw;
// FormatMixed also encodes the block as varint and keeps that only where it
// is strictly smaller (compression must pay for its decode cost with real
// byte savings — and codecOf reads the codec back off that inequality). The
// index is an out-block's len(perVertex)+1 byte offsets, or with entries
// set an in-block's (local, end offset) pair per vertex that has a record —
// written in the one pass over the counts either way.
func encodeBlockPayload(recs []Rec, perVertex []uint32, format Format, weighted, entries bool) ([]byte, []uint32) {
	encode := func(c Codec) ([]byte, []uint32) {
		idx := make([]uint32, 0, len(perVertex)+1)
		var payload []byte
		pos := 0
		for k, cnt := range perVertex {
			if !entries {
				idx = append(idx, uint32(len(payload)))
			}
			if cnt == 0 {
				continue
			}
			payload = encodeVertexRecsCodec(payload, recs[pos:pos+int(cnt)], c, weighted)
			pos += int(cnt)
			if entries {
				idx = append(idx, uint32(k), uint32(len(payload)))
			}
		}
		if !entries {
			idx = append(idx, uint32(len(payload)))
		}
		return payload, idx
	}
	raw, rawIdx := encode(CodecNone)
	if format == FormatMixed {
		if payload, idx := encode(CodecVarint); len(payload) < len(raw) {
			return payload, idx
		}
	}
	return raw, rawIdx
}

// sourceMask is the source bitset of an out-block whose out-index is idx: bit
// k set iff source k's section is nonempty, idx[k+1] > idx[k]. A block with no
// edges (its last offset is 0) has none.
func sourceMask(idx []uint32) []uint64 {
	if idx[len(idx)-1] == 0 {
		return nil
	}
	m := make([]uint64, maskWords(len(idx)-1))
	for k := 0; k+1 < len(idx); k++ {
		if idx[k+1] > idx[k] {
			m[k/64] |= 1 << (k % 64)
		}
	}
	return m
}

// spiller holds the pass' 2·P edge buckets — row i at index i, column j at
// index P+j — and, under a budget, flushes them to numbered spill blobs.
type spiller struct {
	store   storage.Store
	p       int
	budget  int // edges held per view before a flush; 0 never flushes
	held    int
	buckets [][]graph.Edge
	parts   []int // spill blobs written so far, per bucket
}

func newSpiller(store storage.Store, p, budget int) *spiller {
	return &spiller{store: store, p: p, budget: budget, buckets: make([][]graph.Edge, 2*p), parts: make([]int, 2*p)}
}

// partName names bucket b's k-th spill blob: tmp/or/<row>.part<k> for a row,
// tmp/ic/<column>.part<k> for a column.
func (s *spiller) partName(b, k int) string {
	if b < s.p {
		return fmt.Sprintf("tmp/or/%d.part%d", b, k)
	}
	return fmt.Sprintf("tmp/ic/%d.part%d", b-s.p, k)
}

// add files e under row i, and reversed — keyed by its destination — under
// column j.
func (s *spiller) add(i, j int, e graph.Edge) error {
	s.buckets[i] = append(s.buckets[i], e)
	s.buckets[s.p+j] = append(s.buckets[s.p+j], graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	s.held++
	if s.held == s.budget {
		return s.flush()
	}
	return nil
}

// flush writes every non-empty bucket out as its next spill part, a
// graph.WriteBinary stream of its own.
func (s *spiller) flush() error {
	var buf bytes.Buffer
	for b, edges := range s.buckets {
		if len(edges) == 0 {
			continue
		}
		buf.Reset()
		if err := graph.WriteBinary(&buf, &graph.Graph{Edges: edges}); err != nil {
			return err
		}
		// Counted before the Put: a part that failed half-written is still
		// one dropAll must delete.
		s.parts[b]++
		if err := s.store.Put(s.partName(b, s.parts[b]-1), buf.Bytes()); err != nil {
			return err
		}
		s.buckets[b] = edges[:0]
	}
	s.held = 0
	return nil
}

// take returns bucket b's edges in arrival order — its spill parts, then
// what was still in memory — and gives the bucket up: the parts are deleted
// and the memory is the caller's.
func (s *spiller) take(b int) ([]graph.Edge, error) {
	tail := s.buckets[b]
	s.buckets[b] = nil
	if s.parts[b] == 0 {
		return tail, nil
	}
	var edges []graph.Edge
	for k := 0; k < s.parts[b]; k++ {
		buf, err := s.store.ReadAll(s.partName(b, k))
		if err != nil {
			return nil, err
		}
		edges = slices.Grow(edges, len(buf)/graph.EdgeRecordBytes)
		err = graph.DecodeBinary(bytes.NewReader(buf), func(int, uint64) error { return nil }, func(e graph.Edge) error {
			edges = append(edges, e)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("spill part %s: %w", s.partName(b, k), err)
		}
	}
	edges = append(edges, tail...)
	for ; s.parts[b] > 0; s.parts[b]-- {
		if err := s.store.Delete(s.partName(b, s.parts[b]-1)); err != nil {
			return nil, err
		}
	}
	return edges, nil
}

// dropAll deletes every spill part still in the store: the cleanup of a
// build that is already failing, so a part that cannot be deleted (or was
// never written) changes nothing about what the caller is told.
func (s *spiller) dropAll() {
	for b := range s.parts {
		for ; s.parts[b] > 0; s.parts[b]-- {
			_ = s.store.Delete(s.partName(b, s.parts[b]-1))
		}
	}
}
