package core

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
)

// Edge kernels (DESIGN.md §4i).
//
// The executors visit every edge of every block they load, so whatever runs
// per edge is the engine's compute cost. Program.Message and
// Program.Combine are interface calls the compiler cannot inline; a program
// that declares its reduction (Reducer) lets the engine replace both on
// unweighted stores, where Message(u, S[u], 1) depends on the source alone:
//
//   - COP reads a per-source message table m[u], filled from S when a
//     sweep starts unless it is already current (MessageTable), and
//     rewritten by the column pass wherever S changes during the sweep; its
//     edge loop is acc += m[nbr] (sum) or if m[nbr] < acc { acc = m[nbr] }
//     (min). An inactive source's entry is the reduction's identity, so one
//     loop serves every frontier.
//   - ROP calls Message once per active source and pushes the value along
//     its edges with the reduction inlined.
//
// Values are bit-identical to the per-edge interface loops: the table holds
// exactly what Message would have returned, or that identity, combined in
// the same order.
// Those loops (copKernel.combineCOO, the ReduceCustom arm of ropPush)
// remain the one fallback — for programs that declare nothing and for
// weighted stores, where a message may depend on the edge.
//
// A kernel reads one tile of a block (blockstore.InTiles) in the layout
// blockstore hands it over in: one (destination, source) key per edge, local
// to the tile, as a record (CodecCOO) or — for a block stored compressed —
// as the group-varint deltas stored (CodecVarint), each group parsed and
// folded in the same loop with no intermediate record. runCOP folds a
// block's tiles one after another, so each destination's neighbours come
// out in the same ascending order at every interval width and in both
// codecs, and fold to the same bits.
//
// A neighbour is disk input: a crafted record, or a delta the CRC could not
// tell from a valid one, may name no vertex. Every loop tests it against
// the arrays it indexes directly before the load — the test stands in for
// the bounds check the compiler would emit there — and stops at the first
// one that fails, at a malformed segment, or at a key below the one before
// it; the sweep then ends the iteration with an ErrCorrupt-class error
// (runCOP).

// ReduceOp names the reduction a program's Combine performs.
type ReduceOp uint8

const (
	// ReduceCustom declares nothing: the engine calls Combine per edge.
	ReduceCustom ReduceOp = iota
	// ReduceSum declares Combine(acc, msg) = (acc + msg, true).
	ReduceSum
	// ReduceMin declares Combine(acc, msg) = (msg, true) when msg < acc and
	// (acc, false) otherwise. The comparison is strict, so an equal or NaN
	// message neither changes the accumulator nor activates the vertex.
	ReduceMin
)

// String returns the reduction's name.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMin:
		return "min"
	default:
		return "custom"
	}
}

// Combine is the reduction written out as a Program.Combine — what a
// program declaring op promises its own Combine computes, bit for bit, and
// what the specialised kernels inline. ReduceCustom has no definition and
// reports no change.
func (op ReduceOp) Combine(acc, msg float64) (float64, bool) {
	switch op {
	case ReduceSum:
		return acc + msg, true
	case ReduceMin:
		if msg < acc {
			return msg, true
		}
	}
	return acc, false
}

// identity is the message that leaves every accumulator's bits as they are:
// −0 for a sum, since x + (−0) is x for every x, +0 and −0 included, and
// +Inf for a min, which the strict < never finds below an accumulator.
func (op ReduceOp) identity() float64 {
	if op == ReduceMin {
		return math.Inf(1)
	}
	return math.Copysign(0, -1)
}

// Reducer is the optional interface a Program implements to take the
// engine's specialised edge kernels. Declaring a reduction is a promise
// about two methods:
//
//   - Combine is exactly the declared ReduceOp.
//   - Message is pure in the source: it may depend only on (src, srcVal,
//     weight) and on per-vertex program state last written by Apply(src) —
//     never on the destination, the edge's position, or state another
//     vertex's Apply writes. The engine then calls it once per source
//     instead of once per edge.
type Reducer interface {
	Reduce() ReduceOp
}

// reduceOf returns the reduction the executors may inline for prog on this
// engine's store, or ReduceCustom when they must call Message and Combine
// per edge.
func (e *Engine) reduceOf(prog Program) ReduceOp {
	if e.ds.Weighted {
		return ReduceCustom // a message may depend on the edge's weight
	}
	if r, ok := prog.(Reducer); ok {
		if op := r.Reduce(); op == ReduceSum || op == ReduceMin {
			return op
		}
	}
	return ReduceCustom
}

// MessageTable is COP's per-source message array: 8 bytes per vertex,
// allocated on first use. An engine owns one by default; a coordinator
// running K owner-scoped engines over shared S/D arrays hands all of them
// one table (Engine.ShareMessageTable) so a run holds a single copy. Every
// access happens inside Step.Exec, which such a coordinator serialises.
//
// A sweep refills the table when it starts unless the table is current —
// every entry Message(v, S[v], 1) — which only a Drive run can know, since
// it sees every write its runner's engines make to S: so they must share
// one table. There, a sweep that completes over a dense frontier and
// synchronises per column leaves it current (runCOP); any other Exec, and
// the run's start and end, leave it stale.
type MessageTable struct {
	m       []float64
	driven  bool // a Drive run holds the table
	current bool // only ever true while driven
}

func (t *MessageTable) values(n int) []float64 {
	if len(t.m) != n {
		t.m, t.current = make([]float64, n), false
	}
	return t.m
}

// drive starts (on) or ends a Drive run's hold on the table, stale either way.
func (t *MessageTable) drive(on bool) { t.driven, t.current = on, false }

// ShareMessageTable makes the engine use t in place of its own table. Call
// it between runs, never while a Step is open. The engines one Drive run
// steps must share one table (MessageTable).
func (e *Engine) ShareMessageTable(t *MessageTable) { e.msgs = t }

// copKernel is one COP sweep's edge-kernel state: what the program declared,
// the arrays the loops read, and the in-block being processed. The engine
// owns one and reuses it for every block, so handing a block to the chunk
// workers allocates nothing.
type copKernel struct {
	prog     Program
	op       ReduceOp
	weighted bool
	threads  int
	s        []float64
	// m is the message table (nil under ReduceCustom): an active source's
	// message, and the reduction's identity for an inactive one.
	m []float64
	// active is the frontier's bitmap — nil when every vertex is active.
	// The pass reads it to fill m, and the Combine fallback, which has no
	// identity to fold, tests each source against it.
	active []uint64

	// The tile in hand: d is its destinations' accumulators, payload its
	// keys in the layout codec names, and its sources are [srcLo, srcHi).
	d            []float64
	payload      []byte
	codec        blockstore.Codec
	srcLo, srcHi int

	// tiles is the block in hand cut into tiles (foldTiles); bounds is a
	// CodecCOO tile's chunking (recordChunks), gv a CodecVarint tile's
	// (gvChunks); wg joins the chunk workers; bad is the first record a fold
	// stopped at, or noBad; decoded holds a CodecVarint tile's records for
	// the Combine fallback (AppendGV); and next, words and deltas[c] are the
	// column pass's frontier, chunking (wordChunks) and chunk c's largest
	// value change. All live here so a block or a pass costs one allocation
	// per worker spawned and none otherwise.
	tiles   []blockstore.Tile
	bounds  []int
	gv      []gvChunk
	wg      sync.WaitGroup
	bad     atomic.Int64
	decoded []byte
	next    *bitset.Frontier
	words   []int
	deltas  []float64
}

// noBad is copKernel.bad while every fold has run to its end.
const noBad = math.MaxInt64

// begin readies the kernel for one sweep over frontier and, when prog
// declared a reduction, fills the message table from the current S unless
// it is current and every source active. The table is stale from here until
// the sweep completes (runCOP).
func (k *copKernel) begin(e *Engine, prog Program, s []float64, frontier *bitset.Frontier) {
	k.prog, k.op, k.s = prog, e.reduceOf(prog), s
	k.weighted, k.threads = e.ds.Weighted, e.cfg.Threads
	k.active = nil
	if frontier.Count() != frontier.Len() {
		k.active = frontier.Bitmap().Words()
	}
	k.m = nil
	if k.op != ReduceCustom {
		k.m = e.msgs.values(len(s))
		if !e.msgs.current || k.active != nil {
			k.pass(0, len(s), nil, nil)
		}
		e.msgs.current = false
	}
}

// end drops the sweep's references so an idle engine pins no run's arrays.
func (k *copKernel) end() {
	k.prog, k.s, k.m, k.active = nil, nil, nil, nil
	k.d, k.payload, k.next = nil, nil, nil
}

// passMinChunk is the fewest vertices a pass worker takes: below it a spawn
// costs more than the vertices it takes over.
const passMinChunk = 1024

// wordChunks appends to dst the bounds of at most t contiguous chunks of
// [lo, hi), at least passMinChunk vertices each: chunk c is [b[c], b[c+1]).
// Every inner bound is a multiple of 64, so a chunk owns whole words of a
// frontier's bitmap.
func wordChunks(dst []int, lo, hi, t int) []int {
	dst = append(dst, lo)
	t = min(t, (hi-lo)/passMinChunk)
	for c := 1; c < t; c++ {
		dst = append(dst, (lo+c*(hi-lo)/t)&^63)
	}
	return append(dst, hi)
}

// pass is the one loop over vertices [lo, hi) once their accumulators are
// final. Per vertex it applies D to S — Apply(v, S[v], D[v]), or for a
// Monotone program D[v] != S[v] — writes S[v] and activates v in next, and,
// while a sweep's table is in hand, writes v's entry from the new S[v] for
// later columns to pull: an active source's message, an inactive one's the
// reduction's identity. With d nil it writes the entries alone (the sweep
// start's fill). Vertices are conflict-free (§3.5), so the pass splits
// across the kernel's threads (wordChunks) and gives the same bits in any
// order. Returns the largest value change (0 for a Monotone program).
func (k *copKernel) pass(lo, hi int, d []float64, next *bitset.Frontier) float64 {
	k.d, k.next = d, next
	k.words = wordChunks(k.words[:0], lo, hi, k.threads)
	last := len(k.words) - 2
	for len(k.deltas) <= last {
		k.deltas = append(k.deltas, 0)
	}
	k.wg.Add(last)
	for c := 0; c < last; c++ {
		go k.passWorker(c)
	}
	k.passChunk(last)
	k.wg.Wait()
	var maxDelta float64
	for _, delta := range k.deltas[:last+1] {
		if delta > maxDelta {
			maxDelta = delta
		}
	}
	return maxDelta
}

func (k *copKernel) passWorker(c int) {
	defer k.wg.Done()
	k.passChunk(c)
}

// passChunk runs the pass over chunk c, adding a word's activations at once.
func (k *copKernel) passChunk(c int) {
	prog, s, d, m, active := k.prog, k.s, k.d, k.m, k.active
	monotone, none := prog.Kind() == Monotone, k.op.identity()
	var maxDelta float64
	for v, hi := k.words[c], k.words[c+1]; v < hi; {
		var word uint64
		for end := min((v|63)+1, hi); v < end; v++ {
			switch {
			case d == nil: // the fill: entries only
			case monotone:
				// Equal values can still differ in bits (±0): keep S's, so
				// D == S bit for bit at the barrier and the run never has
				// to re-copy one into the other.
				if d[v] == s[v] {
					d[v] = s[v]
				} else {
					s[v] = d[v]
					word |= 1 << (v & 63)
				}
			default:
				newVal, activate := prog.Apply(graph.VertexID(v), s[v], d[v])
				if delta := math.Abs(newVal - s[v]); delta > maxDelta {
					maxDelta = delta
				}
				if s[v] = newVal; activate {
					word |= 1 << (v & 63)
				}
			}
			if m != nil {
				if active == nil || isActive(active, uint32(v)) {
					m[v] = prog.Message(graph.VertexID(v), s[v], 1)
				} else {
					m[v] = none
				}
			}
		}
		if word != 0 {
			k.next.AddWord((v-1)>>6, word)
		}
	}
	k.deltas[c] = maxDelta
}

// records folds one CodecCOO tile, whose sources are [srcLo, srcHi), into
// its accumulators d. It partitions the tile's records across workers
// (recordChunks) and runs the kernel on each chunk — the last on the
// calling goroutine, which would otherwise only wait — and returns once
// every chunk is done: -1 when every record folded, else the first record
// that breaks a rule (recordChunk), or the partial record ending a payload
// whose whole ones all folded. The fold stops there; what it wrote before is
// left for the caller to discard.
func (k *copKernel) records(d []float64, srcLo, srcHi int, payload []byte) int {
	k.d, k.payload, k.codec, k.srcLo, k.srcHi = d, payload, blockstore.CodecCOO, srcLo, srcHi
	step := blockstore.RawRecordBytes(k.weighted)
	k.bounds = recordChunks(k.bounds[:0], payload, step, k.threads)
	if bad := k.fold(len(k.bounds) - 1); bad >= 0 || len(payload)%step == 0 {
		return bad
	}
	return len(payload) / step
}

// varint is records for a CodecVarint tile: it returns -1 or the first
// record that breaks a rule — blockstore.AppendGV's, or naming a
// destination or source outside the tile. The Combine fallback folds the
// records AppendGV decodes the tile into, through records.
func (k *copKernel) varint(d []float64, srcLo, srcHi int, payload []byte) int {
	if k.op == ReduceCustom {
		recs, err := blockstore.AppendGV(k.decoded[:0], payload, k.weighted)
		k.decoded = recs
		if bad := k.records(d, srcLo, srcHi, recs); bad >= 0 || err == nil {
			return bad
		}
		return len(recs) / blockstore.RawRecordBytes(k.weighted)
	}
	k.d, k.payload, k.codec, k.srcLo, k.srcHi = d, payload, blockstore.CodecVarint, srcLo, srcHi
	k.gv = gvChunks(k.gv[:0], payload, len(d), k.threads)
	return k.fold(len(k.gv))
}

// fold runs the tile in hand's n chunks, the last on the calling
// goroutine.
func (k *copKernel) fold(n int) int {
	last := n - 1
	if last < 0 {
		return -1
	}
	k.bad.Store(noBad)
	k.wg.Add(last)
	for c := 0; c < last; c++ {
		go k.worker(c)
	}
	k.runChunk(last)
	k.wg.Wait()
	if bad := k.bad.Load(); bad != noBad {
		return int(bad)
	}
	return -1
}

func (k *copKernel) worker(c int) {
	defer k.wg.Done()
	k.runChunk(c)
}

// isActive tests vertex v in a frontier's bitmap words, in line.
func isActive(active []uint64, v uint32) bool { return active[v>>6]&(1<<(v&63)) != 0 }

// runChunk runs the tile's kernel over chunk c's records and, if it
// stopped, lowers bad to the one it stopped at. Chunks own disjoint
// destinations, so workers never write the same accumulator (§3.5).
func (k *copKernel) runChunk(c int) {
	if k.codec == blockstore.CodecVarint {
		ch := k.gv[c]
		m, d := k.m[k.srcLo:k.srcHi], k.d[:ch.limit]
		var bad int
		if k.op == ReduceSum {
			bad = copSumGV(m, d, k.payload, ch.off, ch.end, ch.rec)
		} else {
			bad = copMinGV(m, d, k.payload, ch.off, ch.end, ch.rec)
		}
		if bad >= 0 {
			k.lowerBad(int64(bad))
		}
		return
	}
	cl, ch := k.bounds[c], k.bounds[c+1]
	if bad := k.recordChunk(cl, ch); bad >= 0 {
		k.lowerBad(int64(cl + bad))
	}
}

// lowerBad records that a fold stopped at record at: the lowest
// wins whichever chunk gets here first.
func (k *copKernel) lowerBad(at int64) {
	for cur := k.bad.Load(); at < cur && !k.bad.CompareAndSwap(cur, at); cur = k.bad.Load() {
	}
}

// recordChunk folds records [lo, hi) of a CodecCOO block and returns -1 or
// the position in the chunk of the one it stopped at. Keys must not fall,
// from the record before the chunk on, nor — but in the last chunk — pass
// the chunk's last key. A sorted block breaks neither; in an unsorted one
// the bound keeps chunks' writes apart, since recordChunks cut at
// destination changes and where the keys before the cuts rise. So a split
// fold may stop before the first key that falls.
func (k *copKernel) recordChunk(lo, hi int) int {
	step := blockstore.RawRecordBytes(k.weighted)
	recs := k.payload[lo*step : hi*step]
	prev, last := uint32(0), uint32(math.MaxUint32)
	if lo > 0 {
		prev = binary.LittleEndian.Uint32(k.payload[(lo-1)*step:])
	}
	if hi < k.bounds[len(k.bounds)-1] {
		last = binary.LittleEndian.Uint32(recs[len(recs)-step:])
	}
	switch k.op {
	case ReduceSum:
		return copSumCOO(k.m[k.srcLo:k.srcHi], k.d, recs, prev, last)
	case ReduceMin:
		return copMinCOO(k.m[k.srcLo:k.srcHi], k.d, recs, prev, last)
	default:
		return k.combineCOO(recs, prev, last)
	}
}

// The specialised COP kernels. Each tile's accumulator d[dst] is folded over
// its in-neighbours in stored (ascending-source) order. They carry no
// IsActive check — an inactive source's table entry is the reduction's
// identity (copKernel.pass), so folding it is folding nothing — and no
// call. They only ever see unweighted tiles: reduceOf keeps weighted stores
// on the fallback.
//
// The CodecCOO kernels fold d[dst] ⊕= m[src] per record, m the tile's
// sources' slice of the table, with no branch on a destination change. A
// key (destination high, source low) must lie in [prev, last], not below
// the key before it, and name a slot of d and of m; else the fold stops and
// returns the record's position.

func copSumCOO(m, d []float64, recs []byte, prev, last uint32) int {
	for r := 0; len(recs) >= 4; r, recs = r+1, recs[4:] {
		key := binary.LittleEndian.Uint32(recs)
		dst, src := key>>16, key&0xffff
		if key < prev || key > last || int(dst) >= len(d) || int(src) >= len(m) {
			return r
		}
		d[dst] += m[src]
		prev = key
	}
	return -1
}

func copMinCOO(m, d []float64, recs []byte, prev, last uint32) int {
	for r := 0; len(recs) >= 4; r, recs = r+1, recs[4:] {
		key := binary.LittleEndian.Uint32(recs)
		dst, src := key>>16, key&0xffff
		if key < prev || key > last || int(dst) >= len(d) || int(src) >= len(m) {
			return r
		}
		if v := m[src]; v < d[dst] {
			d[dst] = v
		}
		prev = key
	}
	return -1
}

// The CodecVarint kernels fold the whole segments in payload[off:end),
// whose first record is the block's record r, as the CodecCOO kernels fold
// records: d[dst] ⊕= m[src] per key, in stored order. A group of four deltas
// is read with four unaligned 4-byte loads, each masked to its delta's
// length, while gvMaxGroup bytes of the segment are left, and
// folded unrolled, with no call; the rest of a segment, whose loads would
// run past it, is read from a padded copy one delta at a time. What they
// accept and fold is what blockstore.AppendGV decodes, with each key's
// destination in d — cut at the next chunk's first — and its source in m
// (FuzzFoldGV); the first segment of a chunk is not held above the key
// before it, which the chunk before stays below. Each returns -1, or the
// block's record it stopped at.

// gvMaxGroup is the most bytes a group of four deltas takes: its tag and
// four 4-byte deltas. While that many key bytes of a segment are left, a
// group's four loads stay inside the segment.
const gvMaxGroup = 17

// gvMask keeps the low 1–4 bytes of a little-endian load, by a delta's two
// tag bits.
var gvMask = [4]uint32{0xff, 0xffff, 0xffffff, 0xffffffff}

func copSumGV(m, d []float64, payload []byte, off, end, r int) int {
	nd, nm := uint64(len(d)), uint64(len(m))
	var last uint64 // the key before the segment
	for first := true; off < end; first = false {
		seg, err := blockstore.ParseGVSegment(payload, off, false)
		if err != nil {
			return r
		}
		keys, n := seg.Keys, seg.Records
		if k0, ok := blockstore.GVFirstKey(keys); !ok || !first && k0>>16 <= last>>16 {
			return r
		}
		key, p := uint64(0), 0
		for ; n >= 4 && p+gvMaxGroup <= len(keys); n, r = n-4, r+4 {
			g := keys[p : p+gvMaxGroup]
			tag := g[0]
			q := 1
			k0 := key + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag&3])
			q += int(tag&3) + 1
			k1 := k0 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>2&3])
			q += int(tag>>2&3) + 1
			k2 := k1 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>4&3])
			q += int(tag>>4&3) + 1
			k3 := k2 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>6])
			p += q + int(tag>>6) + 1
			if k0>>16 >= nd || k0&0xffff >= nm {
				return r
			}
			d[k0>>16] += m[k0&0xffff]
			if k1>>16 >= nd || k1&0xffff >= nm {
				return r + 1
			}
			d[k1>>16] += m[k1&0xffff]
			if k2>>16 >= nd || k2&0xffff >= nm {
				return r + 2
			}
			d[k2>>16] += m[k2&0xffff]
			if k3>>16 >= nd || k3&0xffff >= nm {
				return r + 3
			}
			d[k3>>16] += m[k3&0xffff]
			key = k3
		}
		tail, rem := keys[p:], len(keys)-p
		var pad [2 * gvMaxGroup]byte
		if rem < gvMaxGroup {
			copy(pad[:], tail)
			tail = pad[:]
		}
		q := 0
		for n > 0 {
			if q >= rem {
				return r
			}
			tag := tail[q]
			q++
			for s := 0; s < 8 && n > 0; s, n, r = s+2, n-1, r+1 {
				c := tag >> s & 3
				if q+int(c) >= rem {
					return r
				}
				key += uint64(binary.LittleEndian.Uint32(tail[q:]) & gvMask[c])
				q += int(c) + 1
				if key>>16 >= nd || key&0xffff >= nm {
					return r
				}
				d[key>>16] += m[key&0xffff]
			}
		}
		if q != rem {
			return r
		}
		last, off = key, seg.End
	}
	return -1
}

func copMinGV(m, d []float64, payload []byte, off, end, r int) int {
	nd, nm := uint64(len(d)), uint64(len(m))
	var last uint64 // the key before the segment
	for first := true; off < end; first = false {
		seg, err := blockstore.ParseGVSegment(payload, off, false)
		if err != nil {
			return r
		}
		keys, n := seg.Keys, seg.Records
		if k0, ok := blockstore.GVFirstKey(keys); !ok || !first && k0>>16 <= last>>16 {
			return r
		}
		key, p := uint64(0), 0
		for ; n >= 4 && p+gvMaxGroup <= len(keys); n, r = n-4, r+4 {
			g := keys[p : p+gvMaxGroup]
			tag := g[0]
			q := 1
			k0 := key + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag&3])
			q += int(tag&3) + 1
			k1 := k0 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>2&3])
			q += int(tag>>2&3) + 1
			k2 := k1 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>4&3])
			q += int(tag>>4&3) + 1
			k3 := k2 + uint64(binary.LittleEndian.Uint32(g[q:])&gvMask[tag>>6])
			p += q + int(tag>>6) + 1
			if k0>>16 >= nd || k0&0xffff >= nm {
				return r
			}
			if v := m[k0&0xffff]; v < d[k0>>16] {
				d[k0>>16] = v
			}
			if k1>>16 >= nd || k1&0xffff >= nm {
				return r + 1
			}
			if v := m[k1&0xffff]; v < d[k1>>16] {
				d[k1>>16] = v
			}
			if k2>>16 >= nd || k2&0xffff >= nm {
				return r + 2
			}
			if v := m[k2&0xffff]; v < d[k2>>16] {
				d[k2>>16] = v
			}
			if k3>>16 >= nd || k3&0xffff >= nm {
				return r + 3
			}
			if v := m[k3&0xffff]; v < d[k3>>16] {
				d[k3>>16] = v
			}
			key = k3
		}
		tail, rem := keys[p:], len(keys)-p
		var pad [2 * gvMaxGroup]byte
		if rem < gvMaxGroup {
			copy(pad[:], tail)
			tail = pad[:]
		}
		q := 0
		for n > 0 {
			if q >= rem {
				return r
			}
			tag := tail[q]
			q++
			for s := 0; s < 8 && n > 0; s, n, r = s+2, n-1, r+1 {
				c := tag >> s & 3
				if q+int(c) >= rem {
					return r
				}
				key += uint64(binary.LittleEndian.Uint32(tail[q:]) & gvMask[c])
				q += int(c) + 1
				if key>>16 >= nd || key&0xffff >= nm {
					return r
				}
				if v := m[key&0xffff]; v < d[key>>16] {
					d[key>>16] = v
				}
			}
		}
		if q != rem {
			return r
		}
		last, off = key, seg.End
	}
	return -1
}

// The fallback COP kernel: Message and Combine per edge (Alg. 3 lines
// 11–14 as written), over CodecCOO records — a CodecVarint tile's decoded
// first by blockstore.AppendGV (copKernel.varint).

// combineCOO is the fallback over CodecCOO records, held to copSumCOO's
// rules: Message from the source and the record's weight, then Combine.
func (k *copKernel) combineCOO(recs []byte, prev, last uint32) int {
	step := blockstore.RawRecordBytes(k.weighted)
	for off := 0; off+step <= len(recs); off += step {
		key, w := blockstore.RawRec(recs, off, k.weighted)
		dst, u := key>>16, k.srcLo+int(key&0xffff)
		if key < prev || key > last || int(dst) >= len(k.d) || u >= k.srcHi {
			return off / step
		}
		prev = key
		if k.active != nil && !isActive(k.active, uint32(u)) {
			continue
		}
		if acc, changed := k.prog.Combine(k.d[dst], k.prog.Message(graph.VertexID(u), k.s[u], w)); changed {
			k.d[dst] = acc
		}
	}
	return -1
}

// ropPush pushes source src (current value srcVal) along its out-edge
// section sec, pushed where it was read: records of step bytes
// (blockstore.OutRec), each naming a destination local to the block's
// destination interval, whose accumulators are d and whose first vertex is
// jlo. With a declared reduction Message is called once for the source, not
// once per edge. next, when non-nil, receives every destination whose
// accumulator changed (monotone programs activate on combine-change).
//
// sec may come from a range read, which no checksum covers (blockstore's
// frame.go), so a record is disk input here: the push stops at the first
// one whose destination is not in d, or falls below the one before it — a
// section lists its destinations ascending — and returns its position, or
// -1 when every record was pushed. The bounds test sits directly before the
// index so it stands in for the bounds check the compiler would otherwise
// emit there.
func ropPush(prog Program, op ReduceOp, src graph.VertexID, srcVal float64, sec []byte, step int, weighted bool, d []float64, jlo int, next *bitset.Frontier) int {
	prev := uint32(0)
	switch op { // reduceOf keeps weighted stores on the Combine arm
	case ReduceSum:
		msg := prog.Message(src, srcVal, 1)
		for r := 0; (r+1)*step <= len(sec); r++ {
			local, _ := blockstore.OutRec(sec, r*step, step, false)
			if local < prev || int(local) >= len(d) {
				return r
			}
			prev = local
			d[local] += msg
			if next != nil {
				next.AddAtomic(jlo + int(local))
			}
		}
	case ReduceMin:
		msg := prog.Message(src, srcVal, 1)
		for r := 0; (r+1)*step <= len(sec); r++ {
			local, _ := blockstore.OutRec(sec, r*step, step, false)
			if local < prev || int(local) >= len(d) {
				return r
			}
			prev = local
			if msg < d[local] {
				d[local] = msg
				if next != nil {
					next.AddAtomic(jlo + int(local))
				}
			}
		}
	default:
		for r := 0; (r+1)*step <= len(sec); r++ {
			local, w := blockstore.OutRec(sec, r*step, step, weighted)
			if local < prev || int(local) >= len(d) {
				return r
			}
			prev = local
			if acc, changed := prog.Combine(d[local], prog.Message(src, srcVal, w)); changed {
				d[local] = acc
				if next != nil {
					next.AddAtomic(jlo + int(local))
				}
			}
		}
	}
	return -1
}
