package blockstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// defaultSpillEdges is BuildStreamingOpts' budget when the caller gives none.
const defaultSpillEdges = 1 << 20

// BuildStreamingOpts materializes the dual-block representation from a binary
// graph stream (graph.WriteBinary format) without ever holding the whole
// edge list in memory — the preprocessing path for an edge file that does
// not fit in RAM. It is the build pass every store goes through (see build),
// fed from the reader under a budget: once spillEdges edges are held, every
// bucket is flushed to a numbered spill blob under "tmp/" in the store.
//
// Peak memory is O(max(spillEdges, the two largest buckets' edge counts))
// edges: the budget while edges are read, then the two buckets in flight
// (encodeBuckets), each held with its ordered records and the blocks being
// written; choose P so two intervals' edges fit. Spill blobs are deleted as
// their bucket is encoded, and on every error return. spillEdges <= 0
// selects a default of 1<<20.
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
// interval; then, two buckets at a time (encodeBuckets), encode the row into
// its P out-blocks and the column into its P in-blocks (encodeBucket), and
// last write the meta. feed supplies the edges: it calls start once with the
// vertex count, then edge per edge. With spillEdges > 0 the buckets are
// flushed to the store whenever they hold that many edges; 0 never spills.
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
		d = &DualStore{store: store, Layout: layout, Weighted: opts.Weighted, retries: new(atomic.Int64), names: newBlobNames(p)}
		d.OutDegrees = make([]int32, numV)
		d.InDegrees = make([]int32, numV)
		for _, m := range metaGrids(d) {
			*m = alloc2D(p)
		}
		d.SourceMasks = make([][][]uint64, p)
		d.OutIndexEscapes = make([][][]Escape, p)
		d.OutIndexPageCRCs = make([][][]uint32, p)
		for i := range d.SourceMasks {
			d.SourceMasks[i] = make([][]uint64, p)
			d.OutIndexEscapes[i] = make([][]Escape, p)
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

	if err := d.encodeBuckets(spill, opts.Format); err != nil {
		return nil, err
	}
	if err := d.putBlob(metaName, encodeMeta(d)); err != nil {
		return nil, err
	}
	return d, nil
}

// bucketsInFlight is how many buckets encodeBuckets takes, orders, encodes
// and writes at once: one bucket is ordered and encoded while the other's
// blocks are being written.
const bucketsInFlight = 2

// encodeBuckets takes the pass' 2·P buckets off spill and encodes each
// (encodeBucket), bucketsInFlight at a time, rows and columns alternating —
// row 0, column 0, row 1, column 1, … — so the two in flight put their
// blobs under different prefixes (ob/ and oi/, ib/): on a
// FileStore, into different directories, whose file creations the kernel
// does not serialize against each other. Concurrent buckets share no state:
// row b writes only cells (b, c) of the masks and page CRCs, column b only
// cells (c, b) of the size grids, and each worker reuses its own scratch.
// After the first failure no further bucket is started; the error returned
// is that of the failing bucket taken first, and every bucket in flight has
// ended by the time it returns, so the caller may drop the spill parts.
func (d *DualStore) encodeBuckets(spill *spiller, format Format) error {
	p := d.Layout.P
	errs := make([]error, 2*p)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < bucketsInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s bucketScratch
			for !failed.Load() {
				k := int(next.Add(1) - 1)
				if k >= 2*p {
					return
				}
				b := k/2 + k%2*p
				edges, err := spill.take(b)
				if err == nil {
					err = d.encodeBucket(b%p, b >= p, format, edges, &s)
				}
				if err != nil {
					errs[k] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bucketScratch is what encodeBucket orders a bucket in, kept across the
// buckets one worker encodes: the bucket's records and the bounds of their
// (block, vertex) runs, and an in-block's records in tile order, each
// tile's end and a cursor per destination (encodeInBlock).
type bucketScratch struct {
	recs   []Rec
	bounds []uint32
	tiled  []Rec
	ends   []uint32
	cur    []uint32
}

// encodeBucket writes the P blocks of one bucket — row b's out-blocks
// (b, c), or with in set column b's in-blocks (c, b) — and their indices,
// and records their sizes and, for a row, each nonempty out-block's source
// mask, its out-index's escapes and the out-index's page CRCs. format
// applies to a column only, which COP streams whole (encodeInBlock); a row,
// which ROP reads by offset, is stored raw whatever the format, each record
// holding its local destination (OutRecordBytes).
//
// Each edge of the bucket is an (indexed vertex, neighbour) pair: a row's
// edges as they came, a column's reversed (spiller.add). A block wants its
// records by (vertex, neighbour) — the (source, destination) order of an
// out-block and the (destination, source) order of an in-block, the orders
// Algorithms 2 and 3 require — so the bucket is ordered in linear time: one
// stable counting pass keyed by (neighbour's interval, vertex) places every
// record in its block's run for its vertex, and only a run whose neighbours
// arrived out of order is then sorted, stably. graph.Dedup's (source,
// destination) order leaves no run out of order in either view. A repeated
// (vertex, neighbour) pair keeps its input order.
func (d *DualStore) encodeBucket(b int, in bool, format Format, edges []graph.Edge, s *bucketScratch) error {
	l := d.Layout
	lo, _ := l.Bounds(b)
	size, numV, isz := uint32(l.Size(b)), uint32(l.NumVertices), uint32(l.intervalSize())
	view := "row"
	if in {
		view = "column"
	}
	// Run (c, k) — vertex lo+k's records in block c — is key c·size+k. Count
	// each key's records, checking the edge before its key indexes anything.
	keys := l.P * int(size)
	s.bounds = slices.Grow(s.bounds[:0], keys+1)[:keys+1]
	bounds := s.bounds
	clear(bounds)
	outside := 0
	for _, e := range edges {
		if k := e.Src - uint32(lo); k < size && e.Dst < numV {
			bounds[int(e.Dst/isz)*int(size)+int(k)]++
		} else {
			outside++
		}
	}
	if outside > 0 {
		return fmt.Errorf("%s %d: %d edges outside interval", view, b, outside)
	}
	// Exclusive prefix sums make each count its run's start; placing the
	// records moves it to the run's end, and a shift by one makes bounds[key]
	// the start and bounds[key+1] the end of every run.
	sum := uint32(0)
	for key, n := range bounds[:keys] {
		bounds[key] = sum
		sum += n
	}
	s.recs = slices.Grow(s.recs[:0], len(edges))[:len(edges)]
	recs := s.recs
	for _, e := range edges {
		key := int(e.Dst/isz)*int(size) + int(e.Src-uint32(lo))
		recs[bounds[key]] = Rec{Nbr: e.Dst, Weight: e.Weight}
		bounds[key]++
	}
	copy(bounds[1:], bounds[:keys])
	bounds[0] = 0
	for key := 0; key < keys; key++ {
		sec := recs[bounds[key]:bounds[key+1]]
		sortRun(sec)
		if !in { // a row's neighbour becomes its local destination
			base := uint32(key/int(size)) * isz
			for r := range sec {
				sec[r].Nbr -= base
			}
		}
	}
	for c := 0; c < l.P; c++ {
		runs := bounds[c*int(size) : (c+1)*int(size)+1]
		if in {
			if err := d.encodeInBlock(c, b, format, recs, runs, s); err != nil {
				return err
			}
			continue
		}
		sec := recs[runs[0]:runs[len(runs)-1]]
		payload := encodeVertexRecs(make([]byte, 0, len(sec)*d.OutRecordBytes()), sec, l.localIDBytes(), d.Weighted)
		if err := d.putBlob(d.names.name(blobOutBlock, b, c), payload); err != nil {
			return err
		}
		if len(payload) == 0 {
			continue // an empty block has no out-index
		}
		idx, escapes := encodeOutIndex(runs)
		d.SourceMasks[b][c] = sourceMask(runs)
		d.OutIndexEscapes[b][c] = escapes
		d.OutIndexPageCRCs[b][c] = pageCRCs(idx)
		if err := d.putBlob(d.names.name(blobOutIndex, b, c), idx); err != nil {
			return err
		}
	}
	return nil
}

// encodeInBlock writes in-block(i,j), whose destination k's records are
// recs[runs[k]:runs[k+1]], each naming a source of interval i, in order, and
// records its stored size. The records are laid out as tiles (InTiles), in
// (destination, source) order within each: tile (a,b) takes, for each
// destination of tile row a, the run of its records whose sources fall in
// tile column b, a cursor per destination marking where the next column's
// begin. Each record's neighbour becomes its key in its tile, the local
// destination over the local source. The block is stored as CodecCOO
// records, or in a mixed store as CodecVarint tiles where that is strictly
// smaller, as codecOf reads it.
func (d *DualStore) encodeInBlock(i, j int, format Format, recs []Rec, runs []uint32, s *bucketScratch) error {
	l := d.Layout
	srcLo, _ := l.Bounds(i)
	dsts := len(runs) - 1
	s.cur = append(s.cur[:0], runs[:dsts]...)
	s.tiled, s.ends = slices.Grow(s.tiled[:0], int(runs[dsts]-runs[0])), s.ends[:0]
	for a := 0; a < tileSpan(dsts); a++ {
		for b := 0; b < tileSpan(l.Size(i)); b++ {
			for k := a * MaxCOOInterval; k < min((a+1)*MaxCOOInterval, dsts); k++ {
				for ; s.cur[k] < runs[k+1]; s.cur[k]++ {
					r := recs[s.cur[k]]
					src := int(r.Nbr) - srcLo
					if src >= (b+1)*MaxCOOInterval {
						break
					}
					s.tiled = append(s.tiled, Rec{Nbr: uint32(k%MaxCOOInterval<<16 | src%MaxCOOInterval), Weight: r.Weight})
				}
			}
			s.ends = append(s.ends, uint32(len(s.tiled)))
		}
	}
	dir := tileDirBytes(l.Size(j), l.Size(i))
	payload := encodeTiles(make([]byte, dir, dir+len(s.tiled)*RawRecordBytes(d.Weighted)), s.tiled, s.ends, func(dst []byte, tile []Rec) []byte {
		return encodeVertexRecs(dst, tile, 4, d.Weighted)
	})
	if format == FormatMixed {
		if v := encodeTiles(make([]byte, dir, len(payload)), s.tiled, s.ends, func(dst []byte, tile []Rec) []byte {
			return appendGV(dst, tile, d.Weighted)
		}); len(v) < len(payload) {
			payload = v
		}
	}
	d.InBlockBytes[i][j] = int64(len(payload))
	return d.putBlob(d.names.name(blobInBlock, i, j), payload)
}

// encodeTiles appends to payload, which holds the block's zeroed tile
// directory if it has one, each tile of tiled — tile t ends at record
// ends[t] — encoded by enc, and fills the directory in.
func encodeTiles(payload []byte, tiled []Rec, ends []uint32, enc func(dst []byte, tile []Rec) []byte) []byte {
	dir, start := len(payload), uint32(0)
	for t, end := range ends {
		payload = enc(payload, tiled[start:end])
		if dir > 0 {
			binary.LittleEndian.PutUint32(payload[4*t:], uint32(len(payload)))
		}
		start = end
	}
	return payload
}

// sortRun puts one vertex's records in neighbour order, keeping repeated
// neighbours in the order they came; a run already in order is left as is.
func sortRun(run []Rec) {
	for k := 1; k < len(run); k++ {
		if run[k].Nbr < run[k-1].Nbr {
			slices.SortStableFunc(run, func(x, y Rec) int { return cmp.Compare(x.Nbr, y.Nbr) })
			return
		}
	}
}

// sourceMask is the source bitset of a nonempty block whose source k's
// records are [runs[k], runs[k+1]): bit k set iff source k has one.
func sourceMask(runs []uint32) []uint64 {
	m := make([]uint64, maskWords(len(runs)-1))
	for k := 0; k+1 < len(runs); k++ {
		if runs[k+1] > runs[k] {
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
