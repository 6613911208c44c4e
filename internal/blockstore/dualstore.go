package blockstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// RetryPolicy bounds how DualStore read paths retry faults classified
// transient (errors wrapping storage.ErrTransient), a read attempt that
// outlives Deadline among them. A transient read is retried at once.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure;
	// 0 disables retrying.
	MaxRetries int
	// Deadline bounds every read attempt: one still unanswered at the
	// deadline fails ErrTransient-class and is retried like any transient
	// fault. 0 reads inline with no deadline (a hung read then blocks).
	Deadline time.Duration
}

// DualStore is a graph materialized in the dual-block representation on a
// blob store. The graph data is immutable once built. All loader methods
// are safe for concurrent use, charging the underlying simulated device.
type DualStore struct {
	store  storage.Store
	Layout Layout
	// retry is the transient-fault retry policy for all read paths;
	// retries counts retry attempts actually issued. The counter is
	// shared by pointer across Fork copies so aggregate retry accounting
	// covers every view of the store.
	retry   RetryPolicy
	retries *atomic.Int64
	// Weighted records carry edge weights; unweighted drop them (decoded
	// Weight = 1), halving raw record size — build SSSP inputs weighted
	// and PageRank/BFS/WCC inputs unweighted, as real deployments do.
	Weighted bool
	// OutDegrees and InDegrees are the global degree arrays. The engine
	// keeps them in memory: the predictor needs Σ d_v over active sets
	// and PageRank needs out-degrees for its contribution division.
	OutDegrees []int32
	InDegrees  []int32
	// BlockEdgeCount[i][j] is the number of edges from interval i to
	// interval j (identical for the out-block and in-block views).
	BlockEdgeCount [][]int64
	// InBlockBytes[i][j] is the *stored* size of in-block(i,j)'s payload
	// (the bytes I/O actually moves, which is what the predictor prices, the
	// block cache charges, and the loaders hold every whole block read to):
	// inRawBytes stored raw, less compressed. An out-block's is always
	// OutBlockBytes. An in-block's codec is read off it (InCodec).
	InBlockBytes [][]int64
	// SourceMasks[i][j] is the bitset of interval i's sources that have an
	// edge in block (i,j) — bit k, in word k/64, for source lo_i+k: the
	// sources whose out-index(i,j) section is nonempty — ⌈Size(i)/64⌉ words
	// for a nonempty block and nil for an empty one. ROP visits block (i,j)
	// only when its mask meets the frontier (Extent).
	SourceMasks [][][]uint64
	// OutIndexEscapes[i][j] is the escapes of out-index(i,j): the exact
	// degree of each source whose index byte is degreeEscape, in source
	// order, nil where there is none. ROP reads a section's length off it
	// where the index escapes (indexSections).
	OutIndexEscapes [][][]Escape
	// OutIndexPageCRCs[i][j] is the CRC32C of each PageBytes page of
	// out-index(i,j)'s payload, the last page partial, and nil for an empty
	// block, which has no out-index. A page-span load
	// (LoadOutIndexSpanScratch) checks every page it reads against it.
	OutIndexPageCRCs [][][]uint32
	// names is the blob-name grid the read paths index (see blobNames).
	names *blobNames
}

// InCodec returns the codec of in-block(i,j)'s stored payload: CodecCOO,
// or — stored in fewer bytes than its CodecCOO form takes — CodecVarint.
func (d *DualStore) InCodec(i, j int) Codec {
	return codecOf(d.InBlockBytes[i][j], d.inRawBytes(i, j))
}

// inRawBytes is the size of in-block(i,j) stored CodecCOO: its records,
// RawRecordBytes each, and its tile directory. It is the most any in-block
// stores.
func (d *DualStore) inRawBytes(i, j int) int64 {
	return d.inRecordBytes(i, j) + int64(tileDirBytes(d.Layout.Size(j), d.Layout.Size(i)))
}

// inRecordBytes is the size of in-block(i,j)'s records: what a compressed
// block decodes into.
func (d *DualStore) inRecordBytes(i, j int) int64 {
	return d.BlockEdgeCount[i][j] * int64(RawRecordBytes(d.Weighted))
}

// InTiles cuts in-block(i,j)'s payload, as stored, into its tiles, appended
// to dst[:0], and checks the tile directory against the payload: a
// directory that lies is storage.ErrCorrupt-class. COP calls it on every
// fold, whether the bytes came from the device or the cache.
func (d *DualStore) InTiles(i, j int, payload []byte, dst []Tile) ([]Tile, error) {
	tiles, err := appendTiles(dst[:0], d.Layout.Size(j), d.Layout.Size(i), payload)
	if err != nil {
		return nil, fmt.Errorf("blockstore: %s: %w", d.names.name(blobInBlock, i, j), err)
	}
	return tiles, nil
}

// InDecodeBytes returns what folding in-block(i,j) decodes: the logical
// bytes — its records if the block is stored CodecVarint, else
// none — and the stored bytes they come from. It is a function of the meta
// alone, so an iteration counts the same bytes whether the block came from
// the device or the cache: the kernels fold a block as stored either way.
// The counts are reported, not priced.
func (d *DualStore) InDecodeBytes(i, j int) (logical, stored int64) {
	if d.InCodec(i, j) == CodecVarint {
		return d.inRecordBytes(i, j), d.InBlockBytes[i][j]
	}
	return 0, 0
}

// Extent is the span of the sources a ROP push reads from one out-block:
// interval-local First is the first source active with an edge in the block
// and End one past the last. The zero Extent is a dead block, one no active
// source has an edge in.
type Extent struct{ First, End int32 }

// Live reports whether x holds a source: whether its block is visited.
func (x Extent) Live() bool { return x.End > 0 }

// Extent returns the extent of block (i,j) for the vertices active in f: the
// ends of f ∧ its source mask. An empty block's is always dead.
func (d *DualStore) Extent(i, j int, f *bitset.Frontier) Extent {
	lo, _ := d.Layout.Bounds(i)
	first, last, ok := f.MaskedExtent(lo, d.SourceMasks[i][j])
	if !ok {
		return Extent{}
	}
	return Extent{First: int32(first - lo), End: int32(last - lo + 1)}
}

// OutIndexSpan returns the bytes [off, end) of out-index(i,j)'s payload a
// push over the sources of x reads: the PageBytes pages holding the groups
// of its sources x.First through x.End−1.
func (d *DualStore) OutIndexSpan(i, j int, x Extent) (off, end int64) {
	const sources = indexPageGroups * indexGroupSources // a page's
	off = int64(x.First) / sources * PageBytes
	end = min((int64(x.End-1)/sources+1)*PageBytes, d.OutIndexBytes(i, j))
	return off, end
}

// Options configures a build (BuildOpts, BuildStreamingOpts).
type Options struct {
	// P is the interval count (clamped to the vertex count).
	P int
	// Format is the compression policy (default FormatRaw).
	Format Format
	// Weighted stores edge weights with each record; without it every edge
	// reads back with weight 1.
	Weighted bool
}

// BuildOpts materializes g's dual-block representation under opts. Edges
// inside each out-block are sorted by (source, destination); inside each
// in-block by (destination, source) — the orders Algorithms 2 and 3 of the
// paper require. It feeds g.Edges to the one build pass (build) and never
// spills: the edge list is already resident, and the pass' two bucketed
// copies of it are what any builder of both views must hold.
func BuildOpts(store storage.Store, g *graph.Graph, opts Options) (*DualStore, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("blockstore: build: %w", err)
	}
	d, err := build(store, opts, 0, func(start func(int) error, edge func(graph.Edge) error) error {
		if err := start(g.NumVertices); err != nil {
			return err
		}
		for _, e := range g.Edges {
			if err := edge(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blockstore: build: %w", err)
	}
	return d, nil
}

func alloc2D(p int) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	return m
}

// errOlderStore is Open's one refusal of a store an older build wrote: a
// meta blob without this build's checksum frame, or under a magic other
// than metaMagic. The message is the way out.
var errOlderStore = errors.New("written by an older build — rebuild it with husgen")

// errStoredSize reports a whole block read whose length is not the stored
// size the meta records for it: a blob of another build or another codec.
var errStoredSize = errors.New("length differs from the stored size the meta records")

// Open attaches to a dual-block store previously written by a build. Every
// blob of a store is checksum-framed and every full blob read verifies its
// CRC32C; a meta blob without a frame is not a store this code wrote.
func Open(store storage.Store) (*DualStore, error) {
	buf, err := store.ReadAll(metaName)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open: %w", err)
	}
	if len(buf) <= len(frameMagic) || string(buf[:len(frameMagic)]) != frameMagic || buf[len(frameMagic)] != frameVersion {
		return nil, fmt.Errorf("blockstore: open: %s: %w: %w", metaName, errOlderStore, storage.ErrCorrupt)
	}
	if buf, err = unframeBlob(metaName, buf); err != nil {
		return nil, fmt.Errorf("blockstore: open: %w", err)
	}
	d, err := decodeMeta(buf)
	if err != nil {
		return nil, err
	}
	d.store = store
	return d, nil
}

// Store returns the blob store this DualStore reads through.
func (d *DualStore) Store() storage.Store { return d.store }

// Fork returns a read-only view of the same graph that issues its I/O
// through store — the shard coordinator hands each worker a
// storage.DeviceStore over d's store, so every shard charges its own
// simulated device. The fork shares the immutable metadata
// slices and the retry counter with d; it inherits the retry policy in
// force at fork time, so install policies with SetRetryPolicy first.
func (d *DualStore) Fork(store storage.Store) *DualStore {
	f := *d
	f.store = store
	return &f
}

// SetRetryPolicy installs the transient-fault retry policy used by every
// read path. Call before running; the policy must not change while loads
// are in flight.
func (d *DualStore) SetRetryPolicy(p RetryPolicy) { d.retry = p }

// Retries returns the cumulative number of retry attempts issued by read
// paths since the store was created. The engine snapshots it around
// iterations to attribute retries in IterStats.
func (d *DualStore) Retries() int64 { return d.retries.Load() }

// putBlob writes a durable checksum-framed blob.
func (d *DualStore) putBlob(name string, payload []byte) error {
	return d.store.Put(name, frameBlob(payload))
}

// blobRead names one store read — a whole blob, or with ranged set the
// bytes [off, off+n) of one — so the retry layer can reissue it
// without a closure per load.
type blobRead struct {
	name   string
	off, n int64
	ranged bool
}

// issue performs the read once against the store, into b when it fits.
func (d *DualStore) issue(r blobRead, b []byte) ([]byte, error) {
	if r.ranged {
		return d.store.ReadAtInto(r.name, r.off, r.n, b)
	}
	return d.store.ReadAllInto(r.name, b)
}

// withRetry runs attempts of read until one succeeds, fails
// non-transiently, or the retry budget is exhausted; a retry is issued at
// once. Each attempt is bounded by the policy's Deadline.
func (d *DualStore) withRetry(buf []byte, read blobRead) ([]byte, error) {
	res, err := d.attempt(buf, read)
	for n := 0; n < d.retry.MaxRetries && errors.Is(err, storage.ErrTransient); n++ {
		d.retries.Add(1)
		res, err = d.attempt(buf, read)
	}
	return res, err
}

// attempt performs one read attempt. Without a deadline the read runs
// inline into buf. With one, it reads into a fresh buffer on its own
// goroutine, so a late answer can never scribble over a buffer the caller
// owns by then; an attempt unanswered at the deadline fails with an
// ErrTransient-class error, which withRetry retries. The result channel is
// buffered, so a late read finishes its send and exits instead of leaking.
func (d *DualStore) attempt(buf []byte, read blobRead) ([]byte, error) {
	deadline := d.retry.Deadline
	if deadline <= 0 {
		return d.issue(read, buf)
	}
	type outcome struct {
		b   []byte
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		b, err := d.issue(read, nil)
		ch <- outcome{b, err}
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.b, o.err
	case <-timer.C:
		return nil, fmt.Errorf("blockstore: read %s: no answer within the %v read deadline: %w", read.name, deadline, storage.ErrTransient)
	}
}

// readBlob loads a whole blob with transient-fault retries, and validates
// and strips its checksum frame.
//
// buf, when non-nil, is the caller's reusable read buffer: the blob is read
// into *buf if it fits, and the buffer actually read into (a larger fresh
// one otherwise, or under a read deadline) is left in *buf for the next
// load. The returned payload aliases it past the frame header — which is
// why the whole buffer, not the payload, is what has to be kept: a payload
// slice has lost the header's bytes of capacity and would never fit the
// next blob of the same size.
func (d *DualStore) readBlob(name string, buf *[]byte) ([]byte, error) {
	var into []byte
	if buf != nil {
		into = *buf
	}
	raw, err := d.withRetry(into, blobRead{name: name})
	if err != nil {
		return nil, err
	}
	if buf != nil {
		*buf = raw
	}
	return unframeBlob(name, raw)
}

// readRange loads payload bytes [off, off+n) of a blob with transient-
// fault retries, shifting past the frame header. Range reads cannot
// validate the whole-blob checksum: an out-index page span is checked page
// by page against the meta (LoadOutIndexSpanScratch), and selectively loaded
// record runs only by the window's section checks and ROP's neighbour check.
func (d *DualStore) readRange(name string, off, n int64, buf []byte) ([]byte, error) {
	return d.withRetry(buf, blobRead{name: name, off: off + frameHeaderLen, n: n, ranged: true})
}

// Device returns the simulated device charged by this store.
func (d *DualStore) Device() *storage.Device { return d.store.Device() }

// NumEdges returns the total edge count.
func (d *DualStore) NumEdges() int64 {
	var t int64
	for _, row := range d.BlockEdgeCount {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Scratch holds reusable load buffers for the *Scratch loader variants,
// eliminating steady-state allocations on the engine's hot loops. A Scratch
// must not be shared between concurrent loads; loaded views alias its
// buffers and are invalidated by the next load into the same Scratch.
type Scratch struct {
	// raw and idxRaw hold a block's and an out-index's blob as read; secs
	// and runs a ROP entry's.
	raw    []byte
	idxRaw []byte
	secs   []Section
	runs   []run
}

// scratchPool recycles Scratch buffers across loads, package-wide: the
// convenience loaders and the prefetch workers draw from it so steady-state
// block reads allocate nothing once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch; pair with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc to the pool. No views loaded through sc may be used
// afterwards.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// LoadOutIndexScratch reads out-index(i,j) whole, charged as a sequential
// read, through sc's buffers: its groups as stored (outindex.go), the
// OutIndexBytes the layout gives it, and any other length is
// storage.ErrCorrupt-class. An empty block has no out-index: its load reads
// nothing and returns no bytes. The view is the CRC-verified read buffer
// itself, invalidated by the next load into sc.
func (d *DualStore) LoadOutIndexScratch(i, j int, sc *Scratch) ([]byte, error) {
	if d.BlockEdgeCount[i][j] == 0 {
		return nil, nil
	}
	name := d.names.name(blobOutIndex, i, j)
	idx, err := d.readBlob(name, &sc.idxRaw)
	if err != nil {
		return nil, err
	}
	if want := d.OutIndexBytes(i, j); int64(len(idx)) != want {
		return nil, fmt.Errorf("blockstore: %s: out-index of %d bytes, want %d: %w", name, len(idx), want, storage.ErrCorrupt)
	}
	return idx, nil
}

// LoadOutIndexSpanScratch loads what a ROP push over the sources of x needs
// of out-index(i,j), through sc's buffers: the pages OutIndexSpan names,
// with one range read that skips the frame header, each page checked against
// the CRC the meta records for it. It returns the bytes and the payload
// offset base they start at: group g is at groupOffset(g)−base, for the
// groups of sources First through End−1. A page whose CRC does not match is
// storage.ErrCorrupt-class, and never retried.
func (d *DualStore) LoadOutIndexSpanScratch(i, j int, x Extent, sc *Scratch) (idx []byte, base int, err error) {
	off, end := d.OutIndexSpan(i, j, x)
	name := d.names.name(blobOutIndex, i, j)
	buf, err := d.readRange(name, off, end-off, sc.idxRaw)
	if err != nil {
		return nil, 0, err
	}
	sc.idxRaw = buf
	crcs := d.OutIndexPageCRCs[i][j]
	first := int(off / PageBytes)
	if int64(len(buf)) != end-off || first+indexPages(end-off) > len(crcs) {
		return nil, 0, fmt.Errorf("blockstore: %s: %d bytes from page %d, want %d of %d recorded pages: %w", name, len(buf), first, end-off, len(crcs), storage.ErrCorrupt)
	}
	for k, p := 0, first; k < len(buf); k, p = k+PageBytes, p+1 {
		page := buf[k:min(k+PageBytes, len(buf))]
		if got := crc32.Checksum(page, crc32cTable); got != crcs[p] {
			return nil, 0, fmt.Errorf("blockstore: %s page %d: CRC32C mismatch: computed %08x, meta records %08x: %w", name, p, got, crcs[p], storage.ErrCorrupt)
		}
	}
	return buf, int(off), nil
}

// LoadOutRunScratch reads the byte range [startByte, endByte) of
// out-block(i,j) with one random access, into buf's storage when it has
// room — ROP's selective load of one or more coalesced per-vertex sections
// (Alg. 2 line 7), each of them packed raw records (RawRec).
func (d *DualStore) LoadOutRunScratch(i, j int, startByte, endByte uint32, buf []byte) ([]byte, error) {
	if startByte >= endByte {
		return nil, nil
	}
	return d.readRange(d.names.name(blobOutBlock, i, j), int64(startByte), int64(endByte-startByte), buf)
}

// LoadInBlockScratch streams in-block(i,j), charged as a sequential read —
// COP's block scan (Alg. 3 line 5) — and returns it as stored, into sc's
// buffers: the CRC-checked payload, which must be the stored size the meta
// records, in the codec InCodec(i,j) names, which COP cuts into tiles
// (InTiles) as it folds them. It is the prefetch workers' in-block read.
func (d *DualStore) LoadInBlockScratch(i, j int, sc *Scratch) ([]byte, error) {
	name := d.names.name(blobInBlock, i, j)
	payload, err := d.readBlob(name, &sc.raw)
	if err != nil {
		return nil, err
	}
	if err := checkStoredSize(name, payload, d.InBlockBytes[i][j]); err != nil {
		return nil, err
	}
	return payload, nil
}

// LoadInBlockBytesScratch is LoadInBlockScratch with entries that are always
// nil: no in-block has an in-index. It stays because perfbench compiles
// against it, until ROADMAP 1b.
func (d *DualStore) LoadInBlockBytesScratch(i, j int, sc *Scratch) ([]byte, []uint32, error) {
	payload, err := d.LoadInBlockScratch(i, j, sc)
	return payload, nil, err
}

// checkStoredSize holds a whole block read to the stored size the meta
// records for it. The codec is read off that size, so a blob of another
// length — a raw twin of a compressed block, a block of another build —
// would be decoded as what it is not.
func checkStoredSize(name string, payload []byte, stored int64) error {
	if int64(len(payload)) != stored {
		return fmt.Errorf("blockstore: %s: %d bytes, meta records %d: %w: %w", name, len(payload), stored, errStoredSize, storage.ErrCorrupt)
	}
	return nil
}

// LoadOutPayload streams the payload of out-block(i,j) in one sequential
// read, without touching its index — the whole-block promotion path of the
// run-granular cache: once enough of a block has been read piecemeal, one
// cheap sequential pass caches the payload that every later run slices
// into. The returned buffer is freshly allocated and owned by the caller.
func (d *DualStore) LoadOutPayload(i, j int) ([]byte, error) {
	name := d.names.name(blobOutBlock, i, j)
	payload, err := d.readBlob(name, nil)
	if err != nil {
		return nil, err
	}
	if err := checkStoredSize(name, payload, d.OutBlockBytes(i, j)); err != nil {
		return nil, err
	}
	return payload, nil
}

// OutBlockBytes returns the size of out-block(i,j)'s payload in the row
// view, stored raw in every format: BlockEdgeCount records of
// OutRecordBytes, so half an in-block's records (inRecordBytes) or less where
// intervals fit 16 bits.
func (d *DualStore) OutBlockBytes(i, j int) int64 {
	return d.BlockEdgeCount[i][j] * int64(d.OutRecordBytes())
}

// OutIndexBytes returns the size of out-index(i,j), the same in every
// format: a group of 68 bytes per 64 sources of interval i, 60 groups to a
// PageBytes page — and 0 for an empty block, which has no out-index.
func (d *DualStore) OutIndexBytes(i, j int) int64 {
	if d.BlockEdgeCount[i][j] == 0 {
		return 0
	}
	return outIndexBytes(d.Layout.Size(i))
}

// InIndexBytes is always 0: no in-block has an in-index. It stays because
// perfbench compiles against it, until ROADMAP 1b.
func (d *DualStore) InIndexBytes(i, j int) int64 { return 0 }

// TotalEdgeBytes returns the size of every edge as a raw record of the
// column view, RawRecordBytes each: the in-blocks of a FormatRaw store,
// excluding indices. The row view stores less where intervals fit 16 bits
// (OutBlockBytes).
func (d *DualStore) TotalEdgeBytes() int64 {
	var t int64
	for _, row := range d.BlockEdgeCount {
		for _, n := range row {
			t += n
		}
	}
	return t * int64(RawRecordBytes(d.Weighted))
}

// Aux blob support: small named blobs (checkpoints, run metadata) stored
// alongside the immutable graph blocks under the "aux/" namespace.

// PutAux writes an auxiliary blob, checksum-framed like every other.
func (d *DualStore) PutAux(name string, data []byte) error {
	return d.putBlob("aux/"+name, data)
}

// GetAux reads an auxiliary blob with transient-fault retries and checksum
// verification; storage.ErrNotFound wraps missing names, storage.ErrCorrupt
// wraps frames that fail validation.
func (d *DualStore) GetAux(name string) ([]byte, error) {
	return d.readBlob("aux/"+name, nil)
}
