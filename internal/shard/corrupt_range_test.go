package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// flipStore sets bit 7 of byte 3 in exactly one range read of an out-block —
// the fault no checksum catches, because a range read cannot verify its
// blob's CRC (blockstore/frame.go). Out-blocks are raw in every format, so
// that is the top bit of the run's first neighbour.
type flipStore struct {
	storage.Store
	armed atomic.Bool
}

func (s *flipStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAtInto(name, off, n, buf)
	if err == nil && strings.HasPrefix(name, "ob/") && len(b) > 4 && s.armed.CompareAndSwap(true, false) {
		b[3] |= 0x80
	}
	return b, err
}

// TestCorruptNeighbourInRangeReadIsAnError: disk bytes are input. A
// neighbour ID past the vertex count reaching ROP's push loop must end the
// run with a storage.ErrCorrupt-class error — on the parent of this test it
// indexed D with it and the process died in a parallelFor goroutine — at
// any thread count, through one engine or two shards, over a raw store and
// a mixed one; and every goroutine must be gone afterwards (leaktest.Main
// checks).
func TestCorruptNeighbourInRangeReadIsAnError(t *testing.T) {
	// 64 vertices, P = 4: vertex 0 points at everyone, so iteration 0's only
	// active row reads one run of 15–16 consecutive neighbours per block,
	// and a neighbour with its top bit set names no vertex.
	const n, p = 64, 4
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.VertexID(v))
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	g.Dedup()
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Format: format}); err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			for _, k := range []int{1, 2} {
				what := fmt.Sprintf("%v/threads=%d/K=%d", format, threads, k)
				fs := &flipStore{Store: mem}
				ds, err := blockstore.Open(fs)
				if err != nil {
					t.Fatal(err)
				}
				co, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelROP, Threads: threads}, Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				fs.armed.Store(true)
				_, err = co.Run(algos.BFS{})
				if fs.armed.Load() {
					t.Fatalf("%s: no out-block range read happened; the test corrupted nothing", what)
				}
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("%s: err = %v, want storage.ErrCorrupt-class", what, err)
				}
				var ie *core.IterError
				if !errors.As(err, &ie) {
					t.Fatalf("%s: %v is not a *core.IterError", what, err)
				}
			}
		}
	}
}
