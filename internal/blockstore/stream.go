package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// BuildStreaming materializes the dual-block representation from a binary
// graph stream (graph.WriteBinary format) without ever holding the whole
// edge list in memory — the preprocessing path a real out-of-core
// deployment needs for graphs that do not fit in RAM.
//
// It works in the classic external-bucketing style GraphChi's sharder
// popularized:
//
//  1. One pass over the input spills edges into per-row buckets (grouped
//     by source interval) and per-column buckets (grouped by destination
//     interval), holding at most spillEdges edges in memory per side.
//  2. Each row bucket is then loaded alone, sorted by (source,
//     destination) and encoded into its P out-blocks; each column bucket
//     likewise into its P in-blocks.
//
// Peak memory is O(max(spillEdges, largest interval's edge count)); choose
// P so intervals fit. Spill blobs live under "tmp/" in the store and are
// deleted on success. spillEdges <= 0 selects a default of 1<<20.
func BuildStreaming(store storage.Store, r io.Reader, p int, format Format, spillEdges int) (*DualStore, error) {
	return BuildStreamingOpts(store, r, Options{P: p, Format: format, Weighted: true}, spillEdges)
}

// BuildStreamingOpts is BuildStreaming with full layout options.
func BuildStreamingOpts(store storage.Store, r io.Reader, opts Options, spillEdges int) (*DualStore, error) {
	format := opts.Format
	if format != FormatRaw && format != FormatMixed {
		return nil, fmt.Errorf("blockstore: streaming build: unknown format %d", format)
	}
	if spillEdges <= 0 {
		spillEdges = 1 << 20
	}

	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("blockstore: streaming build: read magic: %w", err)
	}
	if string(magic) != "HUSG" {
		return nil, fmt.Errorf("blockstore: streaming build: bad magic %q (want graph.WriteBinary output)", magic)
	}
	hdr := make([]byte, 4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("blockstore: streaming build: read header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != 1 {
		return nil, fmt.Errorf("blockstore: streaming build: unsupported version %d", v)
	}
	numV := int(binary.LittleEndian.Uint64(hdr[4:]))
	numE := int64(binary.LittleEndian.Uint64(hdr[12:]))

	layout := NewLayout(numV, opts.P)
	p := layout.P
	d := &DualStore{store: store, Layout: layout, Format: format, Weighted: opts.Weighted, retries: new(atomic.Int64), hedges: new(atomic.Int64), dec: new(decodeCounters), names: newBlobNames(p)}
	d.OutDegrees = make([]int32, numV)
	d.InDegrees = make([]int32, numV)
	d.BlockEdgeCount = alloc2D(p)
	d.OutBlockBytes = alloc2D(p)
	d.InBlockBytes = alloc2D(p)
	d.InIndexEntries = alloc2D(p)
	d.InIndexStoredBytes = alloc2D(p)
	if format == FormatMixed {
		d.OutCodecs = allocCodec2D(p)
		d.InCodecs = allocCodec2D(p)
		d.OutIndexStoredBytes = alloc2D(p)
	}

	// Pass 1: spill into per-row and per-column buckets.
	spill := newSpiller(store, spillEdges)
	rec := make([]byte, graph.EdgeRecordBytes)
	for k := int64(0); k < numE; k++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("blockstore: streaming build: edge %d: %w", k, err)
		}
		e := graph.Edge{
			Src:    binary.LittleEndian.Uint32(rec[0:]),
			Dst:    binary.LittleEndian.Uint32(rec[4:]),
			Weight: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
		}
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return nil, fmt.Errorf("blockstore: streaming build: edge %d (%d->%d) out of range [0,%d)", k, e.Src, e.Dst, numV)
		}
		d.OutDegrees[e.Src]++
		d.InDegrees[e.Dst]++
		i, j := layout.IntervalOf(e.Src), layout.IntervalOf(e.Dst)
		d.BlockEdgeCount[i][j]++
		if err := spill.add("tmp/or", i, e); err != nil {
			return nil, err
		}
		if err := spill.add("tmp/ic", j, e); err != nil {
			return nil, err
		}
	}
	if err := spill.flushAll(); err != nil {
		return nil, err
	}

	// Pass 2a: rows → out-blocks.
	for i := 0; i < p; i++ {
		edges, err := spill.collect("tmp/or", i)
		if err != nil {
			return nil, err
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].Src != edges[b].Src {
				return edges[a].Src < edges[b].Src
			}
			return edges[a].Dst < edges[b].Dst
		})
		if err := d.encodeRow(i, edges); err != nil {
			return nil, err
		}
		if err := spill.drop("tmp/or", i); err != nil {
			return nil, err
		}
	}
	// Pass 2b: columns → in-blocks.
	for j := 0; j < p; j++ {
		edges, err := spill.collect("tmp/ic", j)
		if err != nil {
			return nil, err
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].Dst != edges[b].Dst {
				return edges[a].Dst < edges[b].Dst
			}
			return edges[a].Src < edges[b].Src
		})
		if err := d.encodeColumn(j, edges); err != nil {
			return nil, err
		}
		if err := spill.drop("tmp/ic", j); err != nil {
			return nil, err
		}
	}

	if err := d.putBlob(metaName, encodeMeta(d)); err != nil {
		return nil, err
	}
	return d, nil
}

// encodeRow writes the P out-blocks of row i from its (src,dst)-sorted
// edges. Blocks are encoded through the same per-block encoder BuildOpts
// uses (encodeBlockPayload), so FormatMixed's per-block codec choice works
// identically for in-memory and streaming builds.
func (d *DualStore) encodeRow(i int, edges []graph.Edge) error {
	l := d.Layout
	lo, _ := l.Bounds(i)
	size := l.Size(i)
	recs := make([][]Rec, l.P)
	perVertex := make([][]uint32, l.P)
	for j := 0; j < l.P; j++ {
		perVertex[j] = make([]uint32, size)
	}
	pos := 0
	for local := 0; local < size; local++ {
		src := uint32(lo + local)
		end := pos
		// Edges of one source are dst-sorted, so appending in order keeps
		// each block's per-vertex slice neighbor-sorted.
		for end < len(edges) && edges[end].Src == src {
			j := l.IntervalOf(edges[end].Dst)
			recs[j] = append(recs[j], Rec{Nbr: edges[end].Dst, Weight: edges[end].Weight})
			perVertex[j][local]++
			end++
		}
		pos = end
	}
	if pos != len(edges) {
		return fmt.Errorf("blockstore: row %d: %d edges outside interval", i, len(edges)-pos)
	}
	for j := 0; j < l.P; j++ {
		payload, idx, c := encodeBlockPayload(recs[j], perVertex[j], d.Format, d.Weighted, false)
		d.OutBlockBytes[i][j] = int64(len(payload))
		if err := d.putBlobCodec(outBlockName(i, j), payload, c); err != nil {
			return err
		}
		idxPayload, idxCodec := encodeBlockIndex(idx, d.Format, encodeIndexCodec)
		if err := d.putBlobCodec(outIndexName(i, j), idxPayload, idxCodec); err != nil {
			return err
		}
		if d.Format == FormatMixed {
			d.OutCodecs[i][j] = c
			d.OutIndexStoredBytes[i][j] = int64(len(idxPayload))
		}
	}
	return nil
}

// encodeColumn writes the P in-blocks of column j from its
// (dst,src)-sorted edges.
func (d *DualStore) encodeColumn(j int, edges []graph.Edge) error {
	l := d.Layout
	lo, _ := l.Bounds(j)
	size := l.Size(j)
	recs := make([][]Rec, l.P)
	perVertex := make([][]uint32, l.P)
	for i := 0; i < l.P; i++ {
		perVertex[i] = make([]uint32, size)
	}
	pos := 0
	for local := 0; local < size; local++ {
		dst := uint32(lo + local)
		end := pos
		for end < len(edges) && edges[end].Dst == dst {
			i := l.IntervalOf(edges[end].Src)
			recs[i] = append(recs[i], Rec{Nbr: edges[end].Src, Weight: edges[end].Weight})
			perVertex[i][local]++
			end++
		}
		pos = end
	}
	if pos != len(edges) {
		return fmt.Errorf("blockstore: column %d: %d edges outside interval", j, len(edges)-pos)
	}
	for i := 0; i < l.P; i++ {
		if err := d.putInBlock(i, j, recs[i], perVertex[i]); err != nil {
			return err
		}
	}
	return nil
}

// spiller buffers edges per bucket and flushes them to numbered spill
// blobs when the global budget is exceeded.
type spiller struct {
	store   storage.Store
	budget  int
	held    int
	buckets map[string][]graph.Edge
	parts   map[string]int
}

func newSpiller(store storage.Store, budget int) *spiller {
	return &spiller{
		store:   store,
		budget:  budget,
		buckets: map[string][]graph.Edge{},
		parts:   map[string]int{},
	}
}

func (s *spiller) key(prefix string, idx int) string {
	return fmt.Sprintf("%s/%d", prefix, idx)
}

func (s *spiller) add(prefix string, idx int, e graph.Edge) error {
	k := s.key(prefix, idx)
	s.buckets[k] = append(s.buckets[k], e)
	s.held++
	if s.held >= s.budget {
		return s.flushAll()
	}
	return nil
}

func (s *spiller) flushAll() error {
	for k, edges := range s.buckets {
		if len(edges) == 0 {
			continue
		}
		buf := make([]byte, 0, len(edges)*graph.EdgeRecordBytes)
		var scratch [graph.EdgeRecordBytes]byte
		for _, e := range edges {
			binary.LittleEndian.PutUint32(scratch[0:], e.Src)
			binary.LittleEndian.PutUint32(scratch[4:], e.Dst)
			binary.LittleEndian.PutUint32(scratch[8:], math.Float32bits(e.Weight))
			buf = append(buf, scratch[:]...)
		}
		name := fmt.Sprintf("%s.part%d", k, s.parts[k])
		if err := s.store.Put(name, buf); err != nil {
			return err
		}
		s.parts[k]++
		s.buckets[k] = edges[:0]
	}
	s.held = 0
	return nil
}

// collect loads every flushed part of a bucket back into memory.
func (s *spiller) collect(prefix string, idx int) ([]graph.Edge, error) {
	k := s.key(prefix, idx)
	var edges []graph.Edge
	for part := 0; part < s.parts[k]; part++ {
		buf, err := s.store.ReadAll(fmt.Sprintf("%s.part%d", k, part))
		if err != nil {
			return nil, err
		}
		if len(buf)%graph.EdgeRecordBytes != 0 {
			return nil, fmt.Errorf("blockstore: corrupt spill part %s.part%d", k, part)
		}
		for off := 0; off < len(buf); off += graph.EdgeRecordBytes {
			edges = append(edges, graph.Edge{
				Src:    binary.LittleEndian.Uint32(buf[off:]),
				Dst:    binary.LittleEndian.Uint32(buf[off+4:]),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8:])),
			})
		}
	}
	return edges, nil
}

// drop deletes a bucket's spill parts.
func (s *spiller) drop(prefix string, idx int) error {
	k := s.key(prefix, idx)
	for part := 0; part < s.parts[k]; part++ {
		if err := s.store.Delete(fmt.Sprintf("%s.part%d", k, part)); err != nil {
			return err
		}
	}
	delete(s.parts, k)
	return nil
}
