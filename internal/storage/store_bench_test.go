package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// benchFileStore returns a FileStore holding `blobs` blobs of `size` bytes,
// each read once so the timed loop measures the steady state of a run (a
// block is read every iteration), not the first touch.
func benchFileStore(b *testing.B, blobs, size int) (*FileStore, []string) {
	b.Helper()
	fs := newTestFileStore(b)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	names := make([]string, blobs)
	for i := range names {
		names[i] = fmt.Sprintf("ob/%03d", i)
		if err := fs.Put(names[i], data); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.ReadAt(names[i], 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	return fs, names
}

// BenchmarkFileStoreReadAtInto is the ROP access pattern: 4 KB ranges at
// block-aligned offsets, spread over 512 blobs of 64 KB, from as many
// goroutines as GOMAXPROCS, each with its own warm buffer.
func BenchmarkFileStoreReadAtInto(b *testing.B) {
	const blobs, size, n = 512, 64 << 10, 4 << 10
	fs, names := benchFileStore(b, blobs, size)
	var start atomic.Uint64
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, n)
		i := start.Add(7919) // goroutines walk the blobs from different points
		for pb.Next() {
			i++
			var err error
			if buf, err = fs.ReadAtInto(names[i%blobs], int64(i%(size/n))*n, n, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFileStoreReadAllInto is the COP access pattern: whole 64 KB
// blobs, one after another, into one warm buffer.
func BenchmarkFileStoreReadAllInto(b *testing.B) {
	const blobs, size = 512, 64 << 10
	fs, names := benchFileStore(b, blobs, size)
	buf := make([]byte, 0, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = fs.ReadAllInto(names[i%blobs], buf); err != nil {
			b.Fatal(err)
		}
	}
}
