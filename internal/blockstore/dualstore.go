package blockstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// RetryPolicy bounds how DualStore read paths retry faults classified
// transient (errors wrapping storage.ErrTransient). Backoff is exponential:
// the k-th retry sleeps Backoff·2^(k-1), capped at retryBackoffMax.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure;
	// 0 disables retrying.
	MaxRetries int
	// Backoff is the sleep before the first retry; 0 retries immediately.
	Backoff time.Duration
	// Sleep replaces time.Sleep (tests); nil uses time.Sleep.
	Sleep func(time.Duration)
	// Jitter scatters each backoff sleep uniformly over
	// [1-Jitter, 1+Jitter) of its nominal value (clamped to [0,1]), so N
	// prefetch workers retrying the same fault don't hammer a recovering
	// device in lockstep. 0 keeps the deterministic doubling sequence.
	Jitter float64
	// Rand supplies uniform [0,1) samples for jitter; nil uses a locked
	// package-level seeded source. Tests inject a deterministic sequence.
	Rand func() float64
	// Abort, when non-nil, ends backoff sleeps early once it is closed
	// (the prefetcher wires its quit channel here): the in-progress sleep
	// returns immediately and the read resolves with its last error
	// instead of walking the rest of the ladder. Ignored when Sleep is
	// injected.
	Abort <-chan struct{}
}

// retryBackoffMax caps the exponential growth of the backoff between read
// retries.
const retryBackoffMax = 250 * time.Millisecond

// HedgePolicy bounds read-attempt latency. With a Deadline set, every
// blob/range read attempt that has not completed by the deadline gets a
// hedged duplicate issued against the same store; the first response wins
// and the loser's buffer is discarded when it eventually arrives.
type HedgePolicy struct {
	// Deadline is the soft per-attempt deadline; 0 disables deadlines and
	// hedging entirely (reads block until the store answers).
	Deadline time.Duration
}

// hungAfter is how many further Deadlines an attempt waits, once its
// deadline has fired, before it gives the read up as hung. The deadline is
// a latency threshold — where a read counts as slow and gets hedged — and
// reads several times past it must still complete (a 3 ms device behind a
// 1 ms deadline is a slow device, not a dead one); only a read that is two
// orders of magnitude late is treated as never coming back.
const hungAfter = 100

// jitterRng is the fallback jitter source when RetryPolicy.Rand is nil,
// locked because concurrent prefetch workers draw from it.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(0x68757367))
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRng.Float64()
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
	// hedge is the soft read-deadline / hedged-duplicate policy; hedges
	// counts duplicate reads actually issued, shared by pointer across
	// Fork copies like retries.
	hedge  HedgePolicy
	hedges *atomic.Int64
	// Format is the on-disk record encoding of every block.
	Format Format
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
	// OutBlockBytes[i][j] and InBlockBytes[i][j] are the *stored* sizes of
	// out-block(i,j) and in-block(i,j) payloads; for FormatRaw both equal
	// count·RawRecordBytes, for compressed blocks they are the compressed
	// sizes (the bytes I/O actually moves, which is what the predictor
	// prices).
	OutBlockBytes [][]int64
	InBlockBytes  [][]int64
	// InIndexEntries[i][j] is the number of destinations of interval j with
	// an edge in in-block(i,j) — the entries of its in-index — and
	// InIndexStoredBytes[i][j] that index's stored size: 8 bytes an entry
	// on a FormatRaw store, often less on a FormatMixed one.
	InIndexEntries     [][]int64
	InIndexStoredBytes [][]int64
	// OutCodecs/InCodecs are the per-block codec grids of a FormatMixed
	// store (nil otherwise) — Build picks the smallest encoding per block.
	// OutIndexStoredBytes holds the stored sizes of its (possibly
	// varint-compressed) out-indices.
	OutCodecs           [][]Codec
	InCodecs            [][]Codec
	OutIndexStoredBytes [][]int64
	// names is the blob-name grid the read paths index (see blobNames).
	names *blobNames
	// dec aggregates decode-side accounting (section/index decodes, codec
	// bytes in and out, wall time), shared by pointer across Fork copies
	// like retries so prefetch-worker decodes land in the same totals.
	dec *decodeCounters
}

// decodeCounters aggregates codec decode work store-wide. All fields are
// atomic: decodes run concurrently in prefetch workers and hedged readers.
type decodeCounters struct {
	// ops counts decode operations: one per block decode, index decode or
	// run-section decode that ran a non-none codec.
	ops atomic.Int64
	// varintBytes are the *decoded* (logical) bytes varint decodes
	// produced — the basis for modeled decode cost.
	varintBytes atomic.Int64
	// compressedBytes are the stored bytes those decodes consumed.
	compressedBytes atomic.Int64
	// nanos is wall time spent inside codec decode loops (diagnostic; the
	// deterministic cost model uses ModeledDecodeTime over the byte
	// counters instead).
	nanos atomic.Int64
	// logicalBytes counts the logical (decoded-equivalent) bytes of every
	// full payload and index load regardless of codec — the format-
	// independent accounting the cross-format tests compare.
	logicalBytes atomic.Int64
}

// DecodeStats is a snapshot of a store's cumulative decode accounting.
// The snapshot's fields are barrier-published: the live counters are
// atomics the decode workers update, and a snapshot is materialized only
// in serial sections (iteration barriers, run teardown) — a plain write
// from a spawned goroutine is a race.
type DecodeStats struct {
	// Ops counts codec decode operations (non-none codecs only).
	Ops int64
	// VarintBytes are the decoded bytes varint decodes produced;
	// CompressedBytes the stored bytes consumed producing them.
	VarintBytes     int64
	CompressedBytes int64
	// LogicalBytes counts decoded-equivalent bytes of all full payload and
	// index loads, for any codec including none.
	LogicalBytes int64
	// Time is wall time inside decode loops (diagnostic only).
	Time time.Duration
}

// DecodedBytes is the total decoded output of non-none codecs.
func (s DecodeStats) DecodedBytes() int64 { return s.VarintBytes }

// Sub returns s - o field-wise (iteration deltas).
func (s DecodeStats) Sub(o DecodeStats) DecodeStats {
	return DecodeStats{
		Ops:             s.Ops - o.Ops,
		VarintBytes:     s.VarintBytes - o.VarintBytes,
		CompressedBytes: s.CompressedBytes - o.CompressedBytes,
		LogicalBytes:    s.LogicalBytes - o.LogicalBytes,
		Time:            s.Time - o.Time,
	}
}

// DecodeStats returns the cumulative decode accounting since the store was
// created, shared across Fork copies like Retries.
func (d *DualStore) DecodeStats() DecodeStats {
	return DecodeStats{
		Ops:             d.dec.ops.Load(),
		VarintBytes:     d.dec.varintBytes.Load(),
		CompressedBytes: d.dec.compressedBytes.Load(),
		LogicalBytes:    d.dec.logicalBytes.Load(),
		Time:            time.Duration(d.dec.nanos.Load()),
	}
}

// noteDecode records one codec decode op producing logical bytes out of
// stored bytes in dur of wall time.
func (d *DualStore) noteDecode(logical, stored int64, dur time.Duration) {
	d.dec.ops.Add(1)
	d.dec.varintBytes.Add(logical)
	d.dec.compressedBytes.Add(stored)
	d.dec.nanos.Add(int64(dur))
}

// OutCodec returns the codec of out-block(i,j)'s stored payload: the
// block's entry in a FormatMixed store's grid, CodecNone on a FormatRaw one.
func (d *DualStore) OutCodec(i, j int) Codec {
	if d.OutCodecs != nil {
		return d.OutCodecs[i][j]
	}
	return CodecNone
}

// InCodec returns the codec of in-block(i,j)'s stored payload.
func (d *DualStore) InCodec(i, j int) Codec {
	if d.InCodecs != nil {
		return d.InCodecs[i][j]
	}
	return CodecNone
}

// Options configures Build.
type Options struct {
	// P is the interval count (clamped to the vertex count).
	P int
	// Format is the record encoding (default FormatRaw).
	Format Format
	// Weighted stores edge weights with each record.
	Weighted bool
}

// Build materializes g's dual-block representation with p intervals in the
// raw, weighted record format. Edges inside each out-block are sorted by
// (source, destination); inside each in-block by (destination, source) —
// the orders Algorithms 2 and 3 of the paper require.
func Build(store storage.Store, g *graph.Graph, p int) (*DualStore, error) {
	return BuildOpts(store, g, Options{P: p, Weighted: true})
}

// BuildWithFormat is Build with an explicit record encoding (weighted).
func BuildWithFormat(store storage.Store, g *graph.Graph, p int, format Format) (*DualStore, error) {
	return BuildOpts(store, g, Options{P: p, Format: format, Weighted: true})
}

// BuildOpts is Build with full control over the on-disk layout. It feeds
// g.Edges to the one build pass (build) and never spills: the edge list is
// already resident, and the pass' two bucketed copies of it are what any
// builder of both views must hold.
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

// putInBlock encodes and writes in-block(i,j) and its in-index from the
// block's records in (destination, source) order and its per-destination
// record counts, and records what the meta blob keeps of them.
func (d *DualStore) putInBlock(i, j int, recs []Rec, perVertex []uint32) error {
	payload, entries, c := encodeBlockPayload(recs, perVertex, d.Format, d.Weighted, true)
	d.InBlockBytes[i][j] = int64(len(payload))
	if err := d.putBlobCodec(inBlockName(i, j), payload, c); err != nil {
		return err
	}
	idxPayload, idxCodec := encodeBlockIndex(entries, d.Format, encodeInIndex)
	d.InIndexEntries[i][j] = int64(len(entries) / 2)
	d.InIndexStoredBytes[i][j] = int64(len(idxPayload))
	if d.Format == FormatMixed {
		d.InCodecs[i][j] = c
	}
	return d.putBlobCodec(inIndexName(i, j), idxPayload, idxCodec)
}

// encodeBlockPayload encodes one block's per-vertex sections, returning the
// stored payload, the index into it, and the codec used: CodecNone for
// FormatRaw; FormatMixed also encodes the block as varint and keeps that
// only where it is strictly smaller (compression must pay for its decode
// cost with real byte savings). The index is an out-block's
// len(perVertex)+1 byte offsets, or with entries set an in-block's (local,
// end offset) pair per vertex that has a record — written in the one pass
// over the counts either way.
func encodeBlockPayload(recs []Rec, perVertex []uint32, format Format, weighted, entries bool) ([]byte, []uint32, Codec) {
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
			return payload, idx, CodecVarint
		}
	}
	return raw, rawIdx, CodecNone
}

// encodeBlockIndex encodes a block's index with encode — encodeIndexCodec
// for an out-index, encodeInIndex for an in-index. FormatMixed stores keep
// the varint form when that is strictly smaller; FormatRaw keeps the fixed
// 4-byte words.
func encodeBlockIndex(idx []uint32, format Format, encode func([]uint32, Codec) []byte) ([]byte, Codec) {
	raw := encode(idx, CodecNone)
	if format != FormatMixed {
		return raw, CodecNone
	}
	v := encode(idx, CodecVarint)
	if len(v) < len(raw) {
		return v, CodecVarint
	}
	return raw, CodecNone
}

func alloc2D(p int) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	return m
}

func allocCodec2D(p int) [][]Codec {
	m := make([][]Codec, p)
	for i := range m {
		m[i] = make([]Codec, p)
	}
	return m
}

// Open's refusals of stores older builds wrote. The message is the way out;
// callers that need to tell them apart match the value.
var (
	errUnframed     = errors.New("not a framed HUS store — rebuild it with husgen")
	errFormatOne    = errors.New("format 1 (uniform varint) is no longer read — rebuild the store with -format mixed")
	errDenseInIndex = errors.New("the store's in-indices hold an offset per destination, not an entry per destination with edges — rebuild it with husgen")
)

// Open attaches to a dual-block store previously written by Build. Every
// blob of a store is checksum-framed and every full blob read verifies its
// CRC32C; a meta blob without a frame is not a store this code wrote.
func Open(store storage.Store) (*DualStore, error) {
	buf, err := store.ReadAll(metaName)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open: %w", err)
	}
	if len(buf) < len(frameMagic) || string(buf[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("blockstore: open: %s: %w: %w", metaName, errUnframed, storage.ErrCorrupt)
	}
	if buf, _, err = unframeBlob(metaName, buf); err != nil {
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

// SetHedgePolicy installs the read-deadline/hedging policy used by every
// read path. Call before running (and before Fork, which inherits the
// policy in force); it must not change while loads are in flight.
func (d *DualStore) SetHedgePolicy(p HedgePolicy) { d.hedge = p }

// WithAbort returns a view of d whose retry-backoff sleeps end early once
// ch is closed — the prefetcher hands its workers one of these wired to
// its quit channel so Close isn't delayed by a full backoff ladder. The
// view shares metadata and counters with d exactly like Fork.
func (d *DualStore) WithAbort(ch <-chan struct{}) *DualStore {
	f := *d
	f.retry.Abort = ch
	return &f
}

// Retries returns the cumulative number of retry attempts issued by read
// paths since the store was created. The engine snapshots it around
// iterations to attribute retries in IterStats.
func (d *DualStore) Retries() int64 { return d.retries.Load() }

// Hedges returns the cumulative number of hedged duplicate reads issued
// since the store was created, shared across Fork copies like Retries.
func (d *DualStore) Hedges() int64 { return d.hedges.Load() }

// putBlob writes a durable checksum-framed blob.
func (d *DualStore) putBlob(name string, payload []byte) error {
	return d.putBlobCodec(name, payload, CodecNone)
}

// putBlobCodec writes a durable blob whose payload is encoded with codec c.
// FormatMixed stores write version-2 frames carrying the codec tag;
// FormatRaw stores write version-1 frames (every blob is CodecNone).
func (d *DualStore) putBlobCodec(name string, payload []byte, c Codec) error {
	if d.Format == FormatMixed {
		return d.store.Put(name, frameBlobV2(payload, c))
	}
	return d.store.Put(name, frameBlob(payload))
}

// blobRead names one store read — a whole blob, or with ranged set the
// bytes [off, off+n) of one — so the retry and hedge layers can reissue it
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
// non-transiently, or the retry budget is exhausted. Each retry sleeps
// the exponentially grown (optionally jittered) backoff first; a closed
// Abort channel ends the ladder with the last error. Each attempt is
// deadline-bounded and hedged per the hedge policy.
func (d *DualStore) withRetry(buf []byte, read blobRead) ([]byte, error) {
	res, err := d.attempt(buf, read)
	backoff := d.retry.Backoff
	for attempt := 0; attempt < d.retry.MaxRetries && errors.Is(err, storage.ErrTransient); attempt++ {
		d.retries.Add(1)
		if backoff > 0 {
			if aborted := d.sleepBackoff(d.jittered(backoff)); aborted {
				return res, err
			}
			backoff *= 2
			if backoff > retryBackoffMax {
				backoff = retryBackoffMax
			}
		}
		res, err = d.attempt(buf, read)
	}
	return res, err
}

// jittered scatters one backoff sleep per the policy's Jitter/Rand.
func (d *DualStore) jittered(backoff time.Duration) time.Duration {
	j := d.retry.Jitter
	if j <= 0 {
		return backoff
	}
	if j > 1 {
		j = 1
	}
	r := jitterFloat
	if d.retry.Rand != nil {
		r = d.retry.Rand
	}
	return time.Duration(float64(backoff) * (1 - j + 2*j*r()))
}

// sleepBackoff sleeps dur, returning early (aborted=true) if the policy's
// Abort channel closes first.
func (d *DualStore) sleepBackoff(dur time.Duration) (aborted bool) {
	if d.retry.Sleep != nil {
		d.retry.Sleep(dur)
		return false
	}
	if d.retry.Abort == nil {
		time.Sleep(dur)
		return false
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-d.retry.Abort:
		return true
	}
}

// attempt performs one read attempt, applying the hedge policy. Without a
// deadline the read runs inline into buf. With a deadline, every attempt
// reads into a fresh buffer on its own goroutine so a late-arriving loser
// can never scribble over a buffer the winner's caller now owns; on
// deadline expiry a duplicate read races the original, first response
// wins. A hedge can hang like any other read: when neither has answered
// hungAfter deadlines later the attempt resolves with an ErrTransient-class
// error — a hung device costs the retry budget, never the run. The result
// channel is buffered for both reads, so late ones finish their send and
// exit instead of leaking.
func (d *DualStore) attempt(buf []byte, read blobRead) ([]byte, error) {
	deadline := d.hedge.Deadline
	if deadline <= 0 {
		return d.issue(read, buf)
	}
	type outcome struct {
		b   []byte
		err error
	}
	ch := make(chan outcome, 2)
	try := func() {
		b, err := d.issue(read, nil)
		ch <- outcome{b, err}
	}
	go try()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var o outcome
	select {
	case o = <-ch:
	case <-timer.C:
		d.hedges.Add(1)
		go try()
		timer.Reset(hungAfter * deadline)
		select {
		case o = <-ch:
		case <-timer.C:
			o.err = fmt.Errorf("blockstore: read %s: no answer %v after the %v read deadline: %w", read.name, hungAfter*deadline, deadline, storage.ErrTransient)
		}
	}
	return o.b, o.err
}

// readBlob loads a whole blob with transient-fault retries, and validates
// and strips its checksum frame.
func (d *DualStore) readBlob(name string) ([]byte, error) {
	payload, _, err := d.readBlobTagged(name, nil)
	return payload, err
}

// readBlobTagged is readBlob also returning the frame's codec tag —
// CodecNone for version-1 frames. Index loads dispatch their decode on it;
// block loads report a tag disagreeing with the meta grid as corruption.
//
// buf, when non-nil, is the caller's reusable read buffer: the blob is read
// into *buf if it fits, and the buffer actually read into (a larger fresh
// one otherwise, or under a read deadline) is left in *buf for the next
// load. The returned payload aliases it past the frame header — which is
// why the whole buffer, not the payload, is what has to be kept: a payload
// slice has lost the header's bytes of capacity and would never fit the
// next blob of the same size.
func (d *DualStore) readBlobTagged(name string, buf *[]byte) ([]byte, Codec, error) {
	var into []byte
	if buf != nil {
		into = *buf
	}
	raw, err := d.withRetry(into, blobRead{name: name})
	if err != nil {
		return nil, CodecNone, err
	}
	if buf != nil {
		*buf = raw
	}
	return unframeBlob(name, raw)
}

// readRange loads payload bytes [off, off+n) of a blob with transient-
// fault retries, shifting past the frame header (18 bytes for a FormatMixed
// store's version-2 frames, 17 otherwise). Range reads cannot validate the
// whole-blob checksum; integrity of selectively loaded runs is only
// protected by the surrounding decode checks.
func (d *DualStore) readRange(name string, off, n int64, buf []byte) ([]byte, error) {
	if d.Format == FormatMixed {
		off += frameHeaderLenV2
	} else {
		off += frameHeaderLen
	}
	return d.withRetry(buf, blobRead{name: name, off: off, n: n, ranged: true})
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
	// raw and idxRaw hold a block's and an index's blob as read; idx the
	// index parsed out of idxRaw.
	raw    []byte
	idxRaw []byte
	idx    []uint32
	// dec holds what a compressed block or section decodes into: packed
	// raw records.
	dec []byte
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

// loadIndexScratch reads and decodes one block-index blob into sc,
// dispatching on the frame's codec tag (varint-compressed indices only
// exist in FormatMixed stores, whose frames are version 2). want, when
// >= 0, is the expected entry count — a compressed index cannot imply it
// from its stored length, so a short decode is reported as corruption.
func (d *DualStore) loadIndexScratch(name string, want int, sc *Scratch) ([]uint32, error) {
	buf, codec, err := d.readBlobTagged(name, &sc.idxRaw)
	if err != nil {
		return nil, err
	}
	var idx []uint32
	if codec == CodecNone {
		idx, err = decodeIndexInto(sc.idx, buf)
	} else {
		start := time.Now()
		idx, err = decodeIndexCodecInto(sc.idx, buf, codec)
		if err == nil {
			d.noteDecode(int64(len(idx))*IndexEntryBytes, int64(len(buf)), time.Since(start))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("blockstore: %s: %w", name, err)
	}
	if want >= 0 && len(idx) != want {
		return nil, fmt.Errorf("blockstore: %s: index has %d entries, want %d: %w", name, len(idx), want, storage.ErrCorrupt)
	}
	sc.idx = idx
	d.dec.logicalBytes.Add(int64(len(idx)) * IndexEntryBytes)
	return idx, nil
}

// LoadOutIndex reads out-index(i,j): per-source *byte* offsets into
// out-block(i,j)'s stored payload (Size(i)+1 entries). Charged as a
// sequential read.
func (d *DualStore) LoadOutIndex(i, j int) ([]uint32, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	idx, err := d.loadIndexScratch(d.names.name(blobOutIndex, i, j), d.Layout.Size(i)+1, sc)
	if err != nil {
		return nil, err
	}
	return append([]uint32(nil), idx...), nil
}

// LoadOutIndexScratch is LoadOutIndex reusing sc's buffers.
func (d *DualStore) LoadOutIndexScratch(i, j int, sc *Scratch) ([]uint32, error) {
	return d.loadIndexScratch(d.names.name(blobOutIndex, i, j), d.Layout.Size(i)+1, sc)
}

// LoadOutRunScratch reads the stored byte range [startByte, endByte) of
// out-block(i,j) with one random access into sc — ROP's selective load of
// one or more coalesced per-vertex sections (Alg. 2 line 7). Hand each
// section to DecodeSectionScratch.
func (d *DualStore) LoadOutRunScratch(i, j int, startByte, endByte uint32, sc *Scratch) ([]byte, error) {
	if startByte >= endByte {
		return nil, nil
	}
	buf, err := d.readRange(d.names.name(blobOutBlock, i, j), int64(startByte), int64(endByte-startByte), sc.raw)
	if err != nil {
		return nil, err
	}
	sc.raw = buf
	return buf, nil
}

// DecodeSectionScratch returns the packed raw records of one vertex's
// self-contained section (a slice of a loaded run delimited by consecutive
// index entries) stored with codec c — OutCodec(i,j) for a section of
// out-block(i,j). A CodecNone section already is its records and is handed
// back in place; any other is decoded into sc, the result invalidated by
// the next decode into the same sc, and counted in the store's DecodeStats.
func (d *DualStore) DecodeSectionScratch(section []byte, c Codec, sc *Scratch) ([]byte, error) {
	if c == CodecNone {
		return section, nil
	}
	start := time.Now()
	recs, err := appendSection(sc.dec[:0], section, c, d.Weighted)
	if err != nil {
		return nil, err
	}
	sc.dec = recs
	d.noteDecode(int64(len(recs)), int64(len(section)), time.Since(start))
	return recs, nil
}

// LoadInBlockBytesScratch streams in-block(i,j) with its index, charged as
// sequential reads — COP's block scan (Alg. 3 line 5) — and returns it in
// the one shape compute consumes: payload holds the block's packed raw
// records (RawRecordBytes each, iterated in place via RawRec) and entries
// one (local destination, end byte offset of its records in payload) pair
// per destination of the interval that has any, ascending, each section
// starting where the previous one ends. A stored-raw block (all of
// FormatRaw; per-block in FormatMixed) is handed over as read; of a
// compressed one exactly the listed sections are decoded, into the bytes its
// CodecNone twin stores. Both views alias sc's buffers.
//
// The kernels index accumulators and payload by the entries unchecked, so
// every rule they rely on is checked here (decodeInIndex), in the pass that
// decodes them; and the frame's codec tag must agree with the meta grid. A
// violation means a blob lied (or the blobs come from two builds) and is
// reported as corruption.
func (d *DualStore) LoadInBlockBytesScratch(i, j int, sc *Scratch) ([]byte, []uint32, error) {
	name, idxName := d.names.name(blobInBlock, i, j), d.names.name(blobInIndex, i, j)
	c := d.InCodec(i, j)
	idxBuf, idxCodec, err := d.readBlobTagged(idxName, &sc.idxRaw)
	if err != nil {
		return nil, nil, err
	}
	payload, tag, err := d.readBlobTagged(name, &sc.raw)
	if err != nil {
		return nil, nil, err
	}
	if tag != c {
		return nil, nil, fmt.Errorf("blockstore: %s: frame codec %v disagrees with meta codec %v: %w", name, tag, c, storage.ErrCorrupt)
	}
	step := 1
	if c == CodecNone {
		step = RawRecordBytes(d.Weighted)
	}
	start := time.Now()
	entries, err := decodeInIndex(sc.idx, idxBuf, idxCodec, d.Layout.Size(j), len(payload), step)
	if err != nil {
		return nil, nil, fmt.Errorf("blockstore: %s over %s: %w", idxName, name, err)
	}
	sc.idx = entries
	idxLogical := int64(len(entries)) * IndexEntryBytes
	if idxCodec != CodecNone {
		d.noteDecode(idxLogical, int64(len(idxBuf)), time.Since(start))
	}
	if c == CodecNone {
		d.dec.logicalBytes.Add(idxLogical + int64(len(payload)))
		return payload, entries, nil
	}

	// The decoded size is known up front, so the buffer is sized once.
	if want := int(d.BlockEdgeCount[i][j]) * RawRecordBytes(d.Weighted); cap(sc.dec) < want {
		sc.dec = make([]byte, 0, want)
	}
	dec := sc.dec[:0]
	start = time.Now()
	for e, lo := 0, uint32(0); e < len(entries); e += 2 {
		hi := entries[e+1]
		if dec, err = appendSection(dec, payload[lo:hi], c, d.Weighted); err != nil {
			return nil, nil, fmt.Errorf("blockstore: %s vertex %d: %w", name, entries[e], err)
		}
		entries[e+1], lo = uint32(len(dec)), hi
	}
	sc.dec = dec
	d.noteDecode(int64(len(dec)), int64(len(payload)), time.Since(start))
	d.dec.logicalBytes.Add(idxLogical + int64(len(dec)))
	return dec, entries, nil
}

// LoadInBlockScratch is LoadInBlockBytesScratch without the index.
// perfbench/trace.go calls it for compressed blocks; it goes when a
// benchmark PR drops that call (ROADMAP 7d).
func (d *DualStore) LoadInBlockScratch(i, j int, sc *Scratch) ([]byte, error) {
	payload, _, err := d.LoadInBlockBytesScratch(i, j, sc)
	return payload, err
}

// LoadOutPayload streams the stored payload of out-block(i,j) in one
// sequential read, without touching its index — the whole-block promotion
// path of the run-granular cache: once enough of a block has been read
// piecemeal, one cheap sequential pass caches the payload that every
// later run slices into (and, for compressed blocks, decodes section-wise
// through the byte-offset index on touch). The returned buffer is freshly
// allocated and owned by the caller.
func (d *DualStore) LoadOutPayload(i, j int) ([]byte, error) {
	payload, tag, err := d.readBlobTagged(d.names.name(blobOutBlock, i, j), nil)
	if err != nil {
		return nil, err
	}
	if c := d.OutCodec(i, j); tag != c {
		return nil, fmt.Errorf("blockstore: out-block (%d,%d): frame codec %v disagrees with meta codec %v: %w", i, j, tag, c, storage.ErrCorrupt)
	}
	return payload, nil
}

// OutIndexBytes returns the stored size of out-index(i,j) — the actual
// compressed size on FormatMixed stores, the analytic (Size(i)+1)·4
// otherwise.
func (d *DualStore) OutIndexBytes(i, j int) int64 {
	if d.OutIndexStoredBytes != nil {
		return d.OutIndexStoredBytes[i][j]
	}
	return int64(d.Layout.Size(i)+1) * IndexEntryBytes
}

// InIndexBytes returns the stored size of in-index(i,j), as recorded when
// it was written.
func (d *DualStore) InIndexBytes(i, j int) int64 { return d.InIndexStoredBytes[i][j] }

// TotalEdgeBytes returns the on-disk size of all out-blocks, excluding
// indices.
func (d *DualStore) TotalEdgeBytes() int64 {
	var t int64
	for _, row := range d.OutBlockBytes {
		for _, b := range row {
			t += b
		}
	}
	return t
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
	return d.readBlob("aux/" + name)
}
