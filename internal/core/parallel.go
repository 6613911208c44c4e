package core

import "sync"

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

// parallelChunks splits [0, n) into up to t contiguous chunks and runs
// fn(lo, hi) for each, the last on the calling goroutine and the others on
// their own. It blocks until all return.
func parallelChunks(n, t int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if t > n {
		t = n
	}
	if t <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + t - 1) / t
	var wg sync.WaitGroup
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, lo+chunk)
	}
	fn(lo, n)
	wg.Wait()
}

// weightedChunks splits the local vertex range [0, n) into at most t
// contiguous chunks of roughly equal *work*, where cum[k]..cum[k+1] bounds
// vertex k's work (e.g. payload byte offsets), and appends the chunk
// boundaries to dst: chunk c is [b[c], b[c+1]). Power-law graphs concentrate
// most edges on few vertices, so equal-vertex chunks would leave one worker
// with almost all of a block's edges; equal-work chunks keep the §3.5
// intra-block parallelism effective. An empty range yields no chunk; a
// range with no work, one.
func weightedChunks(dst []int, cum []uint32, t int) []int {
	n := len(cum) - 1
	if n <= 0 {
		return dst
	}
	dst = append(dst, 0)
	total := int64(cum[n]) - int64(cum[0])
	if t > n {
		t = n
	}
	if t > 1 && total > 0 {
		target := total / int64(t)
		if target < 1 {
			target = 1
		}
		// The last chunk takes whatever the first t-1 left, so rounding
		// never spawns a worker for a few trailing records.
		for lo, c := 0, 1; c < t; c++ {
			hi := lo + 1
			chunkEnd := int64(cum[lo]) + target
			for hi < n && int64(cum[hi]) < chunkEnd {
				hi++
			}
			if hi == n {
				break
			}
			dst = append(dst, hi)
			lo = hi
		}
	}
	return append(dst, n)
}
