package core

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, threads := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			parallelFor(n, threads, func(k int) {
				atomic.AddInt32(&hits[k], 1)
			})
			for k, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d hit %d times", threads, n, k, h)
				}
			}
		}
	}
}

// TestWordChunksCoverAllContiguously: the column pass's chunks tile the
// range in order, every inner bound on a bitmap word, none below
// passMinChunk vertices, and no more of them than threads.
func TestWordChunksCoverAllContiguously(t *testing.T) {
	for _, threads := range []int{1, 3, 16} {
		for _, r := range [][2]int{{0, 0}, {5, 6}, {100, 100 + passMinChunk}, {4096, 8192}, {777, 777 + 5*passMinChunk + 13}, {0, 1 << 16}} {
			lo, hi := r[0], r[1]
			b := wordChunks(nil, lo, hi, threads)
			if b[0] != lo || b[len(b)-1] != hi || len(b)-1 > max(threads, 1) {
				t.Fatalf("threads=%d [%d,%d): bounds %v", threads, lo, hi, b)
			}
			for c := 1; c < len(b)-1; c++ {
				if b[c]%64 != 0 || b[c]-b[c-1] < passMinChunk-63 || hi-b[c] < passMinChunk-63 {
					t.Fatalf("threads=%d [%d,%d): bounds %v", threads, lo, hi, b)
				}
			}
		}
	}
}

func TestParallelForActuallyParallel(t *testing.T) {
	// With 4 workers and a barrier-ish counter, max concurrency observed
	// should exceed 1. This is probabilistic but extremely reliable with
	// the blocking channel below.
	const n = 8
	running := make(chan struct{}, n)
	var maxSeen atomic.Int32
	parallelFor(n, 4, func(int) {
		running <- struct{}{}
		if c := int32(len(running)); c > maxSeen.Load() {
			maxSeen.Store(c)
		}
		<-running
	})
	if maxSeen.Load() < 1 {
		t.Fatal("no execution observed")
	}
}

// entriesEnding returns an in-index whose k-th entry is destination k ending
// at payload byte ends[k].
func entriesEnding(ends ...uint32) []uint32 {
	var idx []uint32
	for k, end := range ends {
		idx = append(idx, uint32(k), end)
	}
	return idx
}

func TestParallelWeightedChunksCoversAll(t *testing.T) {
	// Skewed work: entry 0 owns almost everything. The chunks must tile the
	// entries with no gap, overlap or empty chunk, at most t of them — also
	// when t exceeds the entry count.
	idx := entriesEnding(1000, 1001, 1002, 1003, 1004)
	n := len(idx) / 2
	for _, threads := range []int{1, 2, 4, 64} {
		b := entryChunks(nil, idx, threads)
		if len(b) < 2 || b[0] != 0 || b[len(b)-1] != n {
			t.Fatalf("threads=%d: bounds %v do not span [0,%d)", threads, b, n)
		}
		if len(b)-1 > threads {
			t.Fatalf("threads=%d: %d chunks", threads, len(b)-1)
		}
		for c := 0; c+1 < len(b); c++ {
			if b[c] >= b[c+1] {
				t.Fatalf("threads=%d: chunk %d of %v is empty or out of order", threads, c, b)
			}
		}
	}
}

func TestParallelWeightedChunksIsolatesHeavyVertex(t *testing.T) {
	// The heavy vertex must land in its own chunk so other workers get
	// the rest — wherever it sits: the boundary search starts from the
	// previous boundary's byte offset, not from zero.
	b := entryChunks(nil, entriesEnding(1000, 1001, 1002, 1003, 1004), 4)
	if len(b) < 3 {
		t.Fatalf("no splitting happened: %v", b)
	}
	if b[1] != 1 {
		t.Fatalf("heavy vertex chunk [0,%d) not isolated: %v", b[1], b)
	}
	if b := entryChunks(nil, entriesEnding(1, 2, 1002, 1003, 1004), 2); len(b) != 3 || b[1] != 3 {
		t.Fatalf("heavy third entry, two threads: bounds %v, want [0 3 5]", b)
	}
}

func TestParallelWeightedChunksEdgeCases(t *testing.T) {
	if b := entryChunks(nil, nil, 4); len(b) != 0 {
		t.Fatalf("no entry chunked: %v", b)
	}
	if b := entryChunks(nil, entriesEnding(8), 4); len(b) != 2 || b[0] != 0 || b[1] != 1 {
		t.Fatalf("one entry, four threads: bounds %v, want [0 1]", b)
	}
	// Every entry its own chunk when there are threads to spare.
	if b := entryChunks(nil, entriesEnding(4, 8, 12), 16); len(b) != 4 {
		t.Fatalf("three equal entries, sixteen threads: bounds %v, want [0 1 2 3]", b)
	}
	// Appending reuses the caller's buffer.
	buf := make([]int, 0, 8)
	if b := entryChunks(buf, entriesEnding(4, 8), 2); &b[0] != &buf[:1][0] {
		t.Fatal("bounds not appended to dst")
	}
}
