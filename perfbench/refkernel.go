package main

import (
	"sync"
	"time"
)

// The reference kernel is the benchmark's unit of time. It is a fixed
// memory-bound job — a gather-sum of 2²² indices into a 2²⁰-entry float64
// table — timed between engine iterations, so that wall_vs_ref reads "one
// engine iteration costs this many gather passes" and the sandbox's
// memory-subsystem contention, which slows engine and kernel alike, divides
// out.
//
// FROZEN: every later commit is judged against numbers divided by this
// kernel's time. Changing its sizes, its seed, its access pattern or how it
// is split over goroutines silently rescales wall_vs_ref on every workload.
// refChecksum pins the data; do not touch the loop either.
const (
	refTableBits = 20
	refIndexBits = 22
	refSeed      = 0x9e3779b97f4a7c15
	refChecksum  = 534989897 // Σ table[idx[i]], pinned by TestRefKernelChecksum
)

type refKernel struct {
	table   []float64
	idx     []uint32
	threads int
}

// splitmix64 is the kernel's own generator, so that neither the index
// stream nor the table depends on math/rand's algorithm.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRefKernel(threads int) *refKernel {
	if threads < 1 {
		threads = 1
	}
	k := &refKernel{
		table:   make([]float64, 1<<refTableBits),
		idx:     make([]uint32, 1<<refIndexBits),
		threads: threads,
	}
	state := uint64(refSeed)
	// Small integers: every partial sum is exact in float64, so the
	// checksum does not depend on how the indices are split over threads.
	for i := range k.table {
		k.table[i] = float64(splitmix64(&state) & 0xff)
	}
	for i := range k.idx {
		k.idx[i] = uint32(splitmix64(&state) & (1<<refTableBits - 1))
	}
	return k
}

// run executes one pass and returns its sum and wall time.
func (k *refKernel) run() (float64, time.Duration) {
	start := time.Now()
	parts := make([]float64, k.threads)
	chunk := (len(k.idx) + k.threads - 1) / k.threads
	var wg sync.WaitGroup
	for t := 0; t < k.threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > len(k.idx) {
			hi = len(k.idx)
		}
		wg.Add(1)
		go func(t int, idx []uint32) {
			defer wg.Done()
			var s float64
			for _, i := range idx {
				s += k.table[i]
			}
			parts[t] = s
		}(t, k.idx[lo:hi])
	}
	wg.Wait()
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return sum, time.Since(start)
}
