package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
)

// weightedMessage is the fallback's test program: a message that depends on
// the edge's weight, summed.
type weightedMessage struct{ constMessage }

func (weightedMessage) Message(_ graph.VertexID, srcVal float64, w float32) float64 {
	return srcVal * float64(w)
}
func (weightedMessage) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// foldCase is one FuzzFoldVarint input laid out for the kernels: a
// compressed in-block's stored payload and in-index entries, the vertex
// count its neighbours must fall under, the frontier's bitmap words (nil:
// every vertex active), the program and what it declares, and the threads
// the block is split over.
type foldCase struct {
	payload  []byte
	entries  []uint32
	n, size  int
	active   []uint64
	prog     Program
	op       ReduceOp
	weighted bool
	threads  int
}

// decodeFoldCase reads a case out of fuzz bytes. Each cut byte c ends a
// section 1 + c%16 bytes after the last one (the last section takes the
// rest of the payload) and names a destination 1 + (c>>4)%3 past the
// previous, so the entries are what blockstore validates before a kernel
// sees them; the selector picks the reduction (sum, min or none — the
// Combine fallback, the only one a weighted store takes), a full frontier
// or the one the mask spells, the weights and 1–3 threads; the vertex
// count is 1 + nsel².
func decodeFoldCase(payload, cuts, mask []byte, sel uint8, nsel uint8) foldCase {
	c := foldCase{payload: payload, n: 1 + int(nsel)*int(nsel), threads: 1 + int(sel>>4)%3}
	c.op = [...]ReduceOp{ReduceSum, ReduceMin, ReduceCustom}[sel%3]
	c.weighted = sel&8 != 0 && c.op == ReduceCustom
	c.prog = declared{testLabel{}, c.op}
	if c.op == ReduceCustom {
		c.prog = weightedMessage{}
	}
	if sel&4 != 0 {
		c.active = make([]uint64, (c.n+63)/64)
		for k := range c.active {
			if k < len(mask) {
				c.active[k] = uint64(mask[k]) * 0x0101010101010101
			}
		}
	}
	end, local := 0, -1
	for k := 0; end < len(payload); k++ {
		cut := byte(0xff)
		if k < len(cuts) {
			cut = cuts[k]
		}
		end = min(end+1+int(cut%16), len(payload))
		if k >= len(cuts) {
			end = len(payload)
		}
		local += 1 + int(cut>>4)%3
		c.entries = append(c.entries, uint32(local), uint32(end))
	}
	c.size = local + 1
	return c
}

// fold runs the kernel over payload and entries in layout codec, from the
// same accumulators and message values every time, and returns the
// accumulators and the entry the fold stopped at (-1: none).
func (c foldCase) fold(payload []byte, entries []uint32, codec blockstore.Codec) ([]float64, int) {
	s := make([]float64, c.n)
	for v := range s {
		s[v] = edgeCaseValues[v%len(edgeCaseValues)]
	}
	d := make([]float64, c.size)
	for k := range d {
		d[k] = edgeCaseValues[(k+5)%len(edgeCaseValues)]
	}
	k := &copKernel{prog: c.prog, op: c.op, weighted: c.weighted, threads: c.threads, s: s, active: c.active}
	if c.op != ReduceCustom {
		// As a sweep fills it: S[u] for an active u (testLabel's message),
		// the reduction's identity for an inactive one.
		k.m = make([]float64, c.n)
		k.pass(0, c.n, nil, nil)
	}
	bad := k.block(d, payload, entries, codec)
	return d, bad
}

// FuzzFoldVarint holds the kernels that fold a compressed in-block as stored
// to the decoder they replace on COP's path. Over arbitrary section bytes,
// in-index entries, frontier and reduction, folding the varint sections must
// stop at exactly the entry where decoding them with blockstore's section
// decoder fails or the decoded records first name a neighbour outside the
// vertex set, and otherwise leave the accumulators bit for bit where folding
// the decoded raw twin (decodeSections) does. It never panics.
func FuzzFoldVarint(f *testing.F) {
	var valid []byte // three sections: {0, 5, 300}, {7}, {2, 3}
	for _, sec := range [][]uint64{{1, 5, 295}, {8}, {3, 1}} {
		for _, gap := range sec {
			valid = binary.AppendUvarint(valid, gap)
		}
	}
	f.Add(valid, []byte{3, 0x10}, []byte{0xff}, uint8(0), uint8(20))                                      // sum, all active
	f.Add(valid, []byte{3, 0x10}, []byte{0x0f}, uint8(1|4|16), uint8(20))                                 // min, a partial frontier, 2 threads
	f.Add(valid, []byte{3, 0x10}, []byte{0xff}, uint8(0), uint8(10))                                      // 300 ≥ |V| = 101
	f.Add([]byte{1, 0x80}, []byte{}, []byte{}, uint8(1), uint8(3))                                        // unterminated gap
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{}, []byte{}, uint8(0), uint8(9))                   // 2³⁵ − 1: past uint32
	f.Add([]byte{1, 0, 0, 0x80, 0x3f, 3, 0, 0, 0x80, 0x3f}, []byte{4}, []byte{}, uint8(2|8|32), uint8(4)) // weighted, Combine fallback, 3 threads
	f.Add([]byte{1, 0, 0, 0x80}, []byte{}, []byte{}, uint8(2|8), uint8(4))                                // weighted: the weight cut short
	f.Add(binary.AppendUvarint([]byte{2}, 20000), []byte{}, []byte{}, uint8(0), uint8(200))               // a three-byte gap, sum
	f.Add(binary.AppendUvarint([]byte{2}, 20000), []byte{}, []byte{}, uint8(1), uint8(200))               // a three-byte gap, min
	f.Fuzz(func(t *testing.T, payload, cuts, mask []byte, sel, nsel uint8) {
		c := decodeFoldCase(payload, cuts, mask, sel, nsel)
		// Where blockstore's decoder, then the raw twin's neighbours, say the
		// fold must stop.
		want := -1
		for e, lo := 0, uint32(0); e < len(c.entries); e += 2 {
			recs, err := blockstore.AppendSection(nil, payload[lo:c.entries[e+1]], blockstore.CodecVarint, c.weighted)
			for off := 0; err == nil && off < len(recs); off += blockstore.RawRecordBytes(c.weighted) {
				if nbr, _ := blockstore.RawRec(recs, off, c.weighted); int(nbr) >= c.n {
					err = errNeighbour
				}
			}
			if err != nil {
				want = e / 2
				break
			}
			lo = c.entries[e+1]
		}
		got, bad := c.fold(payload, c.entries, blockstore.CodecVarint)
		if bad != want {
			t.Fatalf("%+v: the varint fold stopped at entry %d, the decoder at %d", c, bad, want)
		}
		if want >= 0 {
			return
		}
		recs, rawEntries, err := decodeSections(payload, c.entries, c.weighted)
		if err != nil {
			t.Fatalf("%+v: decodeSections refused sections each decoded alone: %v", c, err)
		}
		wantD, rawBad := c.fold(recs, rawEntries, blockstore.CodecNone)
		if rawBad >= 0 {
			t.Fatalf("%+v: the raw twin stopped at entry %d", c, rawBad)
		}
		for k := range wantD {
			if math.Float64bits(got[k]) != math.Float64bits(wantD[k]) {
				t.Fatalf("%+v: accumulator %d folded to %v from the varint sections, %v from the raw twin", c, k, got[k], wantD[k])
			}
		}
	})
}

// errNeighbour marks a decoded record whose neighbour names no vertex.
var errNeighbour = errors.New("neighbour outside the vertex set")

// decodeSections returns the CodecNone twin of a compressed in-block as the
// loader hands it over: every listed section decoded by
// blockstore.AppendSection, the only section decoder, one after another,
// and the entries with each end offset moved to the decoded one.
func decodeSections(payload []byte, entries []uint32, weighted bool) ([]byte, []uint32, error) {
	var recs []byte
	out := make([]uint32, len(entries))
	var err error
	for e, lo := 0, uint32(0); e+1 < len(entries); e += 2 {
		hi := entries[e+1]
		if recs, err = blockstore.AppendSection(recs, payload[lo:hi], blockstore.CodecVarint, weighted); err != nil {
			return nil, nil, err
		}
		out[e], out[e+1], lo = entries[e], uint32(len(recs)), hi
	}
	return recs, out, nil
}

// FuzzFoldCOO holds the CodecCOO kernels — sum, min and the Combine
// fallback, weighted or not, over 1–3 threads — to a fold of one record at a
// time. Over arbitrary payload bytes, interval sizes and frontier, a record
// is folded when its key is not below the one before it, its destination
// lies in the destination interval and its source in the source interval;
// the first record that breaks a rule, or a partial record at the end,
// stops the reference. On one thread the kernels must stop at that record
// with the accumulators bit for bit where the reference leaves them. Split
// across threads they may stop at an earlier record of the same block — a
// chunk also refuses a key above its own last one (copKernel.recordChunk) —
// and otherwise must fold what the reference folds; and no two chunks may
// fold one destination. They never panic.
func FuzzFoldCOO(f *testing.F) {
	recs := func(keys ...uint32) []byte {
		var b []byte
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
		return b
	}
	sorted := recs(0<<16|1, 0<<16|3, 1<<16|0, 1<<16|0, 4<<16|2, 5<<16|1, 5<<16|6, 9<<16|4)
	f.Add(sorted, uint16(10), uint16(7), uint8(0), []byte{0xff})                                                  // sum, all active
	f.Add(sorted, uint16(10), uint16(7), uint8(2|4|16), []byte{0x0f})                                             // min, a partial frontier, 2 threads
	f.Add(sorted, uint16(10), uint16(7), uint8(32), []byte{})                                                     // the Combine fallback, 3 threads
	f.Add(recs(1<<16|0, 0<<16|5), uint16(4), uint16(8), uint8(0), []byte{})                                       // a destination that decreases
	f.Add(recs(1<<16|5, 1<<16|4), uint16(4), uint16(8), uint8(1), []byte{})                                       // a source that decreases
	f.Add(recs(1<<16|0, 4<<16|0), uint16(3), uint16(8), uint8(0), []byte{})                                       // destination == size_j
	f.Add(recs(1<<16|0, 1<<16|8), uint16(4), uint16(7), uint8(1), []byte{})                                       // source == size_i
	f.Add(append(recs(1<<16|0), 7, 7), uint16(4), uint16(8), uint8(0), []byte{})                                  // not whole records
	f.Add(recs(0<<16|1, 1<<16|0, 9<<16|0, 3<<16|0, 4<<16|0, 9<<16|1), uint16(10), uint16(2), uint8(32), []byte{}) // unsorted, 3 chunks
	f.Add(recs(0<<16|0, 5<<16|0, 6<<16|0, 1<<16|0, 2<<16|0, 5<<16|1), uint16(10), uint16(2), uint8(33), []byte{}) // unsorted: a middle chunk ending low
	f.Add(append(recs(2<<16|1), 0, 0, 0x80, 0x3f), uint16(4), uint16(4), uint8(8), []byte{})                      // weighted
	f.Fuzz(func(t *testing.T, payload []byte, dsel, ssel uint16, sel uint8, mask []byte) {
		sizeJ, sizeI := 1+int(dsel), 1+int(ssel)
		srcLo := int(sel>>6) * 3 // the source interval need not start at 0
		n := srcLo + sizeI
		// The kernel decodeFoldCase's selector picks, over n vertices.
		c := decodeFoldCase(nil, nil, nil, sel, 0)
		c.payload, c.n, c.size, c.active = payload, n, sizeJ, nil
		if sel&4 != 0 {
			c.active = make([]uint64, (n+63)/64)
			for k := range c.active {
				if k < len(mask) {
					c.active[k] = uint64(mask[k]) * 0x0101010101010101
				}
			}
		}
		step := blockstore.RawRecordBytes(c.weighted)
		values := func() (s, d []float64) {
			s, d = make([]float64, n), make([]float64, sizeJ)
			for v := range s {
				s[v] = edgeCaseValues[v%len(edgeCaseValues)]
			}
			for k := range d {
				d[k] = edgeCaseValues[(k+5)%len(edgeCaseValues)]
			}
			return s, d
		}

		// The reference: one record at a time, Message and the declared
		// reduction (or Combine) written out, into its own accumulators.
		s, d := values()
		want := -1
		prev := uint32(0)
		r := 0
		for ; (r+1)*step <= len(payload); r++ {
			key := binary.LittleEndian.Uint32(payload[r*step:])
			dst, src := int(key>>16), int(key&0xffff)
			if key < prev || dst >= sizeJ || src >= sizeI {
				want = r
				break
			}
			prev = key
			u := srcLo + src
			if c.active != nil && !isActive(c.active, uint32(u)) {
				continue
			}
			w := float32(1)
			if c.weighted {
				w = math.Float32frombits(binary.LittleEndian.Uint32(payload[r*step+4:]))
			}
			msg := c.prog.Message(graph.VertexID(u), s[u], w)
			if c.op != ReduceCustom {
				d[dst], _ = c.op.Combine(d[dst], msg)
			} else if acc, changed := c.prog.Combine(d[dst], msg); changed {
				d[dst] = acc
			}
		}
		if want < 0 && len(payload)%step != 0 {
			want = r
		}

		// However the block splits, the records each chunk folds — rising
		// from the key before the chunk, and but in the last to at most its
		// own last key — name destinations no other chunk's do: workers
		// never write one accumulator together, however unsorted the block.
		bounds := recordChunks(nil, payload, step, c.threads)
		owner := map[uint32]int{}
		for ch := 0; ch+1 < len(bounds); ch++ {
			lo, hi := bounds[ch], bounds[ch+1]
			key := func(r int) uint32 { return binary.LittleEndian.Uint32(payload[r*step:]) }
			prev, last := uint32(0), uint32(math.MaxUint32)
			if lo > 0 {
				prev = key(lo - 1)
			}
			if ch+2 < len(bounds) {
				last = key(hi - 1)
			}
			for r := lo; r < hi && prev <= key(r) && key(r) <= last && int(key(r)>>16) < sizeJ && int(key(r)&0xffff) < sizeI; r++ {
				if o, ok := owner[key(r)>>16]; ok && o != ch {
					t.Fatalf("%+v: chunks %d and %d of %v both fold destination %d", c, o, ch, bounds, key(r)>>16)
				}
				owner[key(r)>>16], prev = ch, key(r)
			}
		}

		// The kernel, its table filled as a sweep fills it (foldCase.fold).
		_, got := values()
		k := &copKernel{prog: c.prog, op: c.op, weighted: c.weighted, threads: c.threads, s: s, active: c.active}
		if c.op != ReduceCustom {
			k.m = make([]float64, n)
			k.pass(0, n, nil, nil)
		}
		bad := k.records(got, srcLo, n, payload)
		switch {
		case c.threads == 1 && bad != want:
			t.Fatalf("%+v: the fold stopped at record %d, the reference at %d", c, bad, want)
		case (bad < 0) != (want < 0) || bad > want:
			t.Fatalf("%+v, %d threads: the fold stopped at record %d, the reference at %d", c, c.threads, bad, want)
		case c.threads > 1 && want >= 0:
			return // what a split fold wrote before it stopped is discarded
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(d[v]) {
				t.Fatalf("%+v: accumulator %d folded to %v, the reference %v", c, v, got[v], d[v])
			}
		}
	})
}

// FuzzPushLocal holds ROP's push — sum, min and the Combine fallback, over
// records of either width, weighted or not — to a push of one record at a
// time. Over arbitrary section bytes, destination intervals and source
// values, a record is pushed when its local destination lies in the
// interval and does not fall below the record's before it; the first that
// breaks a rule stops the reference, and a partial record at the end is no
// record (the window cuts sections at whole records). The push must stop at
// that record — or at none — with the accumulators bit for bit where the
// reference leaves them and exactly the vertices whose accumulator changed
// activated, at the interval's offset. It never panics.
func FuzzPushLocal(f *testing.F) {
	recs := func(idBytes int, locals ...uint32) []byte {
		var b []byte
		for _, l := range locals {
			b = binary.LittleEndian.AppendUint32(b, l)[:len(b)+idBytes]
		}
		return b
	}
	f.Add(recs(2, 0, 1, 1, 4, 9), uint32(9), uint8(0), uint8(3))                    // sum, 16-bit records
	f.Add(recs(2, 0, 1, 1, 4, 9), uint32(9), uint8(1), uint8(10))                   // min
	f.Add(recs(4, 0, 3, 70000), uint32(70000), uint8(2|4), uint8(0))                // the Combine fallback, 32-bit records
	f.Add(recs(2, 2, 1), uint32(9), uint8(0), uint8(3))                             // a destination that falls
	f.Add(recs(2, 0, 10), uint32(9), uint8(1), uint8(3))                            // destination == size
	f.Add(recs(4, 1, 1<<31), uint32(9), uint8(1|4), uint8(3))                       // a 32-bit record's top bit
	f.Add(append(recs(2, 1), 0, 0, 0x80, 0x3f, 7), uint32(3), uint8(2|8), uint8(0)) // weighted, a partial record after
	f.Fuzz(func(t *testing.T, sec []byte, dsel uint32, sel, vsel uint8) {
		size := 1 + int(dsel%(2*blockstore.MaxCOOInterval)) // an interval of up to 2¹⁷
		op := [...]ReduceOp{ReduceSum, ReduceMin, ReduceCustom}[sel%3]
		idBytes := 2 << (sel >> 2 & 1)
		weighted := sel&8 != 0 && op == ReduceCustom
		jlo := int(sel>>4) * 7
		step := idBytes
		if weighted {
			step += 4
		}
		var prog Program = declared{testLabel{}, op}
		if op == ReduceCustom {
			prog = weightedMessage{}
		}
		const src = 3
		srcVal := edgeCaseValues[int(vsel)%len(edgeCaseValues)]
		values := func() []float64 {
			d := make([]float64, size)
			for k := range d {
				d[k] = edgeCaseValues[(k+int(vsel>>4))%len(edgeCaseValues)]
			}
			return d
		}

		// The reference: one record at a time, the destination read byte by
		// byte, Message and the declared reduction (or Combine) written out.
		d, activated := values(), map[int]bool{}
		want := -1
		prev := uint64(0)
		for r := 0; (r+1)*step <= len(sec); r++ {
			local := uint64(0)
			for b := idBytes - 1; b >= 0; b-- {
				local = local<<8 | uint64(sec[r*step+b])
			}
			if local < prev || local >= uint64(size) {
				want = r
				break
			}
			prev = local
			w := float32(1)
			if weighted {
				w = math.Float32frombits(binary.LittleEndian.Uint32(sec[r*step+idBytes:]))
			}
			msg := prog.Message(src, srcVal, w)
			acc, changed := op.Combine(d[local], msg)
			if op == ReduceCustom {
				acc, changed = prog.Combine(d[local], msg)
			}
			if changed {
				d[local] = acc
				activated[jlo+int(local)] = true
			}
		}

		got, next := values(), bitset.NewFrontier(jlo+size)
		if bad := ropPush(prog, op, src, srcVal, sec, step, weighted, got, jlo, next); bad != want {
			t.Fatalf("op %v, %d-byte records, weighted=%v, interval of %d: the push stopped at record %d, the reference at %d", op, step, weighted, size, bad, want)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(d[k]) {
				t.Fatalf("op %v, %d-byte records: accumulator %d pushed to %v, the reference %v", op, step, k, got[k], d[k])
			}
		}
		for v := 0; v < jlo+size; v++ {
			if next.Contains(v) != activated[v] {
				t.Fatalf("op %v, %d-byte records: vertex %d activated=%v, the reference %v", op, step, v, next.Contains(v), activated[v])
			}
		}
	})
}
