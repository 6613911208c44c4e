package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// weightedMessage is the fallback's test program: a message that depends on
// the edge's weight, summed.
type weightedMessage struct{ constMessage }

func (weightedMessage) Message(_ graph.VertexID, srcVal float64, w float32) float64 {
	return srcVal * float64(w)
}
func (weightedMessage) Combine(acc, msg float64) (float64, bool) { return acc + msg, true }

// foldKernel is what a fold fuzz input's selector byte picks: the
// reduction — sum, min or none, the Combine fallback, the only one a
// weighted store takes — and its program, whether records carry weights,
// the frontier (bit 4: the one the mask spells over n vertices, else full)
// and 1–4 threads.
type foldKernel struct {
	prog     Program
	op       ReduceOp
	weighted bool
	active   []uint64
	threads  int
}

func kernelOf(sel uint8, mask []byte, n int) foldKernel {
	c := foldKernel{op: [...]ReduceOp{ReduceSum, ReduceMin, ReduceCustom}[sel%3], threads: 1 + int(sel>>4)%4}
	c.weighted = sel&8 != 0 && c.op == ReduceCustom
	c.prog = declared{testLabel{}, c.op}
	if c.op == ReduceCustom {
		c.prog = weightedMessage{}
	}
	if sel&4 != 0 {
		c.active = make([]uint64, (n+63)/64)
		for k := range c.active {
			if k < len(mask) {
				c.active[k] = uint64(mask[k]) * 0x0101010101010101
			}
		}
	}
	return c
}

// foldValues are a fold's source values over n vertices and its
// accumulators over size destinations, the same every time.
func foldValues(n, size int) (s, d []float64) {
	s, d = make([]float64, n), make([]float64, size)
	for v := range s {
		s[v] = edgeCaseValues[v%len(edgeCaseValues)]
	}
	for k := range d {
		d[k] = edgeCaseValues[(k+5)%len(edgeCaseValues)]
	}
	return s, d
}

// kernel returns a copKernel for c over the source values s, its table
// filled as a sweep fills it: S[u] for an active u (testLabel's message),
// the reduction's identity for an inactive one.
func (c foldKernel) kernel(s []float64) *copKernel {
	k := &copKernel{prog: c.prog, op: c.op, weighted: c.weighted, threads: c.threads, s: s, active: c.active}
	if c.op != ReduceCustom {
		k.m = make([]float64, len(s))
		k.pass(0, len(s), nil, nil)
	}
	return k
}

// gvEncode lays sorted keys out as a CodecVarint block whose segments end
// at the first destination change after every records keys, each key's
// weight float32(key%7) on a weighted store.
func gvEncode(keys []uint32, every int, weighted bool) []byte {
	var out []byte
	for len(keys) > 0 {
		n := min(every, len(keys))
		for n < len(keys) && keys[n]>>16 == keys[n-1]>>16 {
			n++
		}
		var body []byte
		prev := uint32(0)
		for g := 0; g < n; g += 4 {
			at := len(body)
			body = append(body, 0)
			for k := g; k < min(g+4, n); k++ {
				delta := keys[k] - prev
				l := 1
				for delta>>(8*l) != 0 && l < 4 {
					l++
				}
				body[at] |= byte(l-1) << (2 * (k - g))
				body = binary.LittleEndian.AppendUint32(body, delta)[:len(body)+l]
				prev = keys[k]
			}
		}
		out = binary.AppendUvarint(out, uint64(n))
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
		if weighted {
			for _, k := range keys[:n] {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(k%7)))
			}
		}
		keys = keys[n:]
	}
	return out
}

// FuzzFoldGV holds the CodecVarint kernels — sum, min and the Combine
// fallback, weighted or not, over 1–4 threads — to decoding the block with
// blockstore.AppendGV, the one decoder, and folding the records it yields
// with the CodecCOO kernels on one thread (copSumCOO, copMinCOO,
// combineCOO), the decoder's refusal stopping the reference after them.
// The input is the stored bytes as given, or with bit 7 of the selector its
// bytes read as 4-byte keys, sorted and laid out by gvEncode with segments
// of at least 1 + ssel%8 keys. On one thread the fold must stop at the
// reference's record, or nowhere, with the accumulators bit for bit where
// the reference leaves them. Split across threads it must stop iff the
// reference does, at a record no later — a chunk also refuses a
// destination at or past the next chunk's first — and otherwise fold what
// the reference folds; and no two chunks may fold one destination. It
// never panics.
func FuzzFoldGV(f *testing.F) {
	keys := func(ks ...uint32) []byte {
		var b []byte
		for _, k := range ks {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
		return b
	}
	var many []uint32
	for k := uint32(0); k < 300; k++ {
		many = append(many, (k/7)<<16|(k*37)%200) // 43 destinations, gaps of one to three bytes
	}
	slices.Sort(many)
	sorted := keys(0<<16|1, 0<<16|3, 1<<16|0, 1<<16|0, 4<<16|2, 5<<16|1, 5<<16|6, 9<<16|4)
	f.Add(gvEncode(many, 8, false), uint16(50), uint16(200), uint8(0), []byte{0xff})                                                                                    // sum, all active
	f.Add(gvEncode(many, 8, false), uint16(50), uint16(200), uint8(1|4|16), []byte{0x0f, 0xf0})                                                                         // min, a partial frontier, 2 threads
	f.Add(gvEncode(many, 5, false), uint16(50), uint16(200), uint8(48), []byte{})                                                                                       // sum, 4 threads
	f.Add(gvEncode(many, 5, true), uint16(50), uint16(200), uint8(2|8|32), []byte{})                                                                                    // weighted, the Combine fallback, 3 threads
	f.Add(sorted, uint16(10), uint16(7), uint8(128|16), []byte{})                                                                                                       // keys laid out by the test, 2 threads
	f.Add(sorted, uint16(10), uint16(7), uint8(128|1|48), []byte{})                                                                                                     // min over them, 4 threads
	f.Add(gvEncode(many, 8, false), uint16(40), uint16(200), uint8(16), []byte{})                                                                                       // a destination past the interval
	f.Add(gvEncode(many, 8, false), uint16(50), uint16(150), uint8(1), []byte{})                                                                                        // a source past the interval
	f.Add([]byte{9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(4), uint16(4), uint8(0), []byte{})                                                                            // a header claiming more records than its bytes hold
	f.Add([]byte{1, 9, 0, 0}, uint16(4), uint16(4), uint8(0), []byte{})                                                                                                 // a header claiming more bytes than the block holds
	f.Add([]byte{1, 1, 0}, uint16(4), uint16(4), uint8(1), []byte{})                                                                                                    // a tag without its delta
	f.Add([]byte{2, 5, 0xc0, 1, 0xff, 0xff, 0xff}, uint16(4), uint16(4), uint8(0), []byte{})                                                                            // a 4-byte delta past its segment
	f.Add([]byte{2, 6, 0xc3, 0, 0, 1, 0, 0xff}, uint16(4), uint16(4), uint8(0), []byte{})                                                                               // a tag that runs past its segment
	f.Add([]byte{2, 9, 0xf3, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff}, uint16(4), uint16(4), uint8(2), []byte{})                                                             // a key past 2³²
	f.Add(append(gvEncode([]uint32{3<<16 | 1}, 1, false), gvEncode([]uint32{2<<16 | 1}, 1, false)...), uint16(4), uint16(4), uint8(16), []byte{})                       // a segment below the key before it
	f.Add(append(gvEncode([]uint32{3<<16 | 1}, 1, false), gvEncode([]uint32{3<<16 | 2}, 1, false)...), uint16(4), uint16(4), uint8(0), []byte{})                        // a segment on the destination before it
	f.Add(append(gvEncode([]uint32{1<<16 | 1, 5<<16 | 0}, 1, false), gvEncode([]uint32{3<<16 | 2, 6<<16 | 1}, 1, false)...), uint16(8), uint16(4), uint8(16), []byte{}) // a chunk climbing into the next's first destination
	f.Add(append(gvEncode([]uint32{1 << 16}, 1, false), 0, 0), uint16(4), uint16(4), uint8(0), []byte{})                                                                // key bytes left undecoded
	f.Fuzz(func(t *testing.T, payload []byte, dsel, ssel uint16, sel uint8, mask []byte) {
		sizeJ, sizeI := 1+int(dsel), 1+int(ssel)
		srcLo := int(sel>>5&1) * 3 // the source interval need not start at 0
		n := srcLo + sizeI
		c := kernelOf(sel, mask, n)
		if sel&128 != 0 {
			var ks []uint32
			for off := 0; off+4 <= len(payload); off += 4 {
				ks = append(ks, binary.LittleEndian.Uint32(payload[off:]))
			}
			slices.Sort(ks)
			payload = gvEncode(ks, 1+int(ssel)%8, c.weighted)
		}
		step := blockstore.RawRecordBytes(c.weighted)

		// The reference: the decoder, then the CodecCOO kernels on one
		// thread over what it decoded.
		s, want := foldValues(n, sizeJ)
		recs, decErr := blockstore.AppendGV(nil, payload, c.weighted)
		if decErr != nil && !errors.Is(decErr, storage.ErrCorrupt) {
			t.Fatalf("the decoder's refusal %v is not ErrCorrupt-class", decErr)
		}
		ref := c
		ref.threads = 1
		wantBad := ref.kernel(s).records(want, srcLo, n, recs)
		if wantBad < 0 && decErr != nil {
			wantBad = len(recs) / step
		}

		// However the block splits, the keys each chunk folds — decoded
		// from its first segment on, below its limit — name destinations no
		// other chunk's do: workers never write one accumulator together.
		if !c.weighted {
			owner := map[uint32]int{}
			for ch, chunk := range gvChunks(nil, payload, sizeJ, c.threads) {
				part, _ := blockstore.AppendGV(nil, payload[chunk.off:chunk.end], false)
				for off := 0; off < len(part); off += 4 {
					key := binary.LittleEndian.Uint32(part[off:])
					if int(key>>16) >= chunk.limit || int(key&0xffff) >= sizeI {
						break
					}
					if o, ok := owner[key>>16]; ok && o != ch {
						t.Fatalf("chunks %d and %d both fold destination %d", o, ch, key>>16)
					}
					owner[key>>16] = ch
				}
			}
		}

		_, got := foldValues(n, sizeJ)
		bad := c.kernel(s).varint(got, srcLo, n, payload)
		switch {
		case c.threads == 1 && bad != wantBad:
			t.Fatalf("%v: the fold stopped at record %d, the reference at %d (%v)", c.op, bad, wantBad, decErr)
		case (bad < 0) != (wantBad < 0) || bad > wantBad:
			t.Fatalf("%v, %d threads: the fold stopped at record %d, the reference at %d (%v)", c.op, c.threads, bad, wantBad, decErr)
		case wantBad >= 0:
			return // what a fold wrote before it stopped is discarded
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%v, %d threads: accumulator %d folded to %v, the reference %v", c.op, c.threads, v, got[v], want[v])
			}
		}
	})
}

// FuzzFoldCOO holds the CodecCOO kernels — sum, min and the Combine
// fallback, weighted or not, over 1–4 threads — to a fold of one record at a
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
		c := kernelOf(sel, mask, n)
		step := blockstore.RawRecordBytes(c.weighted)

		// The reference: one record at a time, Message and the declared
		// reduction (or Combine) written out, into its own accumulators.
		s, d := foldValues(n, sizeJ)
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
					t.Fatalf("%v: chunks %d and %d of %v both fold destination %d", c.op, o, ch, bounds, key(r)>>16)
				}
				owner[key(r)>>16], prev = ch, key(r)
			}
		}

		// The kernel, its table filled as a sweep fills it.
		_, got := foldValues(n, sizeJ)
		bad := c.kernel(s).records(got, srcLo, n, payload)
		switch {
		case c.threads == 1 && bad != want:
			t.Fatalf("%v: the fold stopped at record %d, the reference at %d", c.op, bad, want)
		case (bad < 0) != (want < 0) || bad > want:
			t.Fatalf("%v, %d threads: the fold stopped at record %d, the reference at %d", c.op, c.threads, bad, want)
		case c.threads > 1 && want >= 0:
			return // what a split fold wrote before it stopped is discarded
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(d[v]) {
				t.Fatalf("%v, %d threads: accumulator %d folded to %v, the reference %v", c.op, c.threads, v, got[v], d[v])
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
