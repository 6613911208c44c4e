package core

import (
	"encoding/binary"
	"sync"

	"husgraph/internal/blockstore"
)

// parallelFor runs fn(k) for every k in [0, n) on up to t goroutines,
// distributing indices round-robin. It blocks until all calls return.
func parallelFor(n, t int, fn func(k int)) {
	if n <= 0 {
		return
	}
	if t > n {
		t = n
	}
	if t <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += t {
				fn(k)
			}
		}(w)
	}
	wg.Wait()
}

// recordChunks splits a CodecCOO tile's whole records, step bytes each,
// into at most t contiguous chunks of about equal records, and appends the
// boundaries to dst: chunk c is records [b[c], b[c+1]). An inner boundary
// moves forward to the next destination change, so every destination lies
// in one chunk and workers write disjoint accumulators; and the key before
// a boundary must lie above the one before the boundary ahead of it, else
// the cut is not made. A sorted block meets that at every change. Over an
// unsorted one a chunk's keys must rise from the key before it and stay at
// or below its own last key (recordChunk), so chunk c writes destinations
// in (dst(b[c]-1), dst(b[c+1]-1)], ranges that do not overlap. No record
// yields no chunk.
func recordChunks(dst []int, payload []byte, step, t int) []int {
	n := len(payload) / step
	if n == 0 {
		return dst
	}
	dst = append(dst, 0)
	keyOf := func(r int) uint32 { return binary.LittleEndian.Uint32(payload[r*step:]) }
	for c := 1; c < min(t, n); c++ {
		prev := dst[len(dst)-1]
		b := max(c*n/t, prev+1)
		for b < n && keyOf(b)>>16 == keyOf(b-1)>>16 {
			b++
		}
		if b >= n {
			break
		}
		if prev == 0 || keyOf(b-1) > keyOf(prev-1) {
			dst = append(dst, b)
		}
	}
	return append(dst, n)
}

// gvChunk is one chunk of a CodecVarint tile: the whole segments in
// payload bytes [off, end), the block's record rec the first of them starts
// with, and limit, the destination the chunk's keys must stay below.
type gvChunk struct{ off, end, rec, limit int }

// gvChunks splits a CodecVarint tile over size destinations into at
// most t chunks of whole segments and about equal bytes, and appends them
// to dst; it reads only segment headers and first keys. A cut is made at a
// segment start only where the segment's first destination lies above the
// previous cut's, and the chunk the cut ends must stay below that
// destination (the last chunk below size). A chunk's keys never fall from
// its first one, so the chunks write disjoint ranges of destinations, each
// a chunk's own, whatever the block holds; a sorted block meets the rule at
// every segment start. No payload yields no chunk.
func gvChunks(dst []gvChunk, payload []byte, size, t int) []gvChunk {
	if len(payload) == 0 {
		return dst
	}
	cur, cuts, from := gvChunk{}, 0, -1 // from: the last cut's destination
	for off, rec := 0, 0; cuts+1 < t && off < len(payload); {
		seg, err := blockstore.ParseGVSegment(payload, off, false)
		if err != nil {
			break
		}
		if key, ok := blockstore.GVFirstKey(seg.Keys); ok && off > 0 && off >= (cuts+1)*len(payload)/t && int(key>>16) > from {
			from = int(key >> 16)
			cur.end, cur.limit = off, min(from, size)
			dst = append(dst, cur)
			cur, cuts = gvChunk{off: off, rec: rec}, cuts+1
		}
		off, rec = seg.End, rec+seg.Records
	}
	cur.end, cur.limit = len(payload), size
	return append(dst, cur)
}
