package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

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
// the decoded raw twin (blockstore.DecodeInBlock) does. It never panics.
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
		recs, rawEntries, err := blockstore.DecodeInBlock(nil, payload, c.entries, c.weighted)
		if err != nil {
			t.Fatalf("%+v: DecodeInBlock refused sections each decoded alone: %v", c, err)
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
