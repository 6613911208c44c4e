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
// interval; then, a bucket at a time, sort the row by (source, destination)
// into its P out-blocks and the column by (destination, source) into its P
// in-blocks — the orders Algorithms 2 and 3 require. feed supplies the
// edges: it calls start once with the vertex count, then edge per edge.
// With spillEdges > 0 the buckets are flushed to the store whenever they
// hold that many edges; 0 never spills.
func build(store storage.Store, opts Options, spillEdges int, feed func(start func(numV int) error, edge func(graph.Edge) error) error) (_ *DualStore, err error) {
	format := opts.Format
	if format != FormatRaw && format != FormatMixed {
		return nil, fmt.Errorf("unknown format %d", format)
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
		d = &DualStore{store: store, Layout: layout, Format: format, Weighted: opts.Weighted, retries: new(atomic.Int64), hedges: new(atomic.Int64), dec: new(decodeCounters), names: newBlobNames(p)}
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
		if b < p {
			slices.SortFunc(edges, func(x, y graph.Edge) int {
				return cmp.Compare(uint64(x.Src)<<32|uint64(x.Dst), uint64(y.Src)<<32|uint64(y.Dst))
			})
			err = d.encodeRow(b, edges)
		} else {
			slices.SortFunc(edges, func(x, y graph.Edge) int {
				return cmp.Compare(uint64(x.Dst)<<32|uint64(x.Src), uint64(y.Dst)<<32|uint64(y.Src))
			})
			err = d.encodeColumn(b-p, edges)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := d.putBlob(metaName, encodeMeta(d)); err != nil {
		return nil, err
	}
	return d, nil
}

// encodeRow writes the P out-blocks of row i from its (src,dst)-sorted
// edges.
func (d *DualStore) encodeRow(i int, edges []graph.Edge) error {
	l := d.Layout
	lo, _ := l.Bounds(i)
	size := l.Size(i)
	recs := make([][]Rec, l.P)
	perVertex := make([][]uint32, l.P)
	for j := 0; j < l.P; j++ {
		recs[j] = make([]Rec, 0, d.BlockEdgeCount[i][j])
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
		return fmt.Errorf("row %d: %d edges outside interval", i, len(edges)-pos)
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
		recs[i] = make([]Rec, 0, d.BlockEdgeCount[i][j])
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
		return fmt.Errorf("column %d: %d edges outside interval", j, len(edges)-pos)
	}
	for i := 0; i < l.P; i++ {
		if err := d.putInBlock(i, j, recs[i], perVertex[i]); err != nil {
			return err
		}
	}
	return nil
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

// add files e under row i and column j.
func (s *spiller) add(i, j int, e graph.Edge) error {
	s.buckets[i] = append(s.buckets[i], e)
	s.buckets[s.p+j] = append(s.buckets[s.p+j], e)
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
