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

// flipStore corrupts exactly one range read of an out-block with flip — the
// fault no checksum catches, because a range read cannot verify its blob's
// CRC (blockstore/frame.go). Out-blocks are raw in every format.
type flipStore struct {
	storage.Store
	flip  func(run []byte)
	armed atomic.Bool
}

func (s *flipStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAtInto(name, off, n, buf)
	if err == nil && strings.HasPrefix(name, "ob/") && len(b) > 4 && s.armed.CompareAndSwap(true, false) {
		s.flip(b)
	}
	return b, err
}

// TestCorruptNeighbourInRangeReadIsAnError: disk bytes are input. A record
// reaching ROP's push loop whose destination lies outside its block's
// destination interval, or falls below the record's before it, must end the
// run with a storage.ErrCorrupt-class *core.IterError — without the check
// a neighbour past the vertex count indexed D and the process died in a
// parallelFor goroutine — at any thread count, through one engine
// or two shards, with or without the block cache, over a raw store and a
// mixed one; and every goroutine must be gone afterwards (leaktest.Main
// checks).
func TestCorruptNeighbourInRangeReadIsAnError(t *testing.T) {
	// 64 vertices, P = 4: vertex 0 points at everyone, so iteration 0's only
	// active row reads one run per block that starts with vertex 0's 15–16
	// consecutive destinations, local to an interval of 16 vertices. Each
	// record is a 16-bit local destination.
	const n, p = 64, 4
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.VertexID(v))
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	g.Dedup()
	flips := []struct {
		name string
		flip func(run []byte)
	}{
		// Record 1's top bit: a destination of 2¹⁵ or more in an interval of 16.
		{"out of range", func(run []byte) { run[3] |= 0x80 }},
		// Record 0 (destination 0 or 1) rises by 8, past record 1's.
		{"falling", func(run []byte) { run[0] |= 0x08 }},
	}
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Format: format}); err != nil {
			t.Fatal(err)
		}
		for _, f := range flips {
			for _, cache := range []int64{0, 1 << 20} {
				for _, threads := range []int{1, 4} {
					for _, k := range []int{1, 2} {
						what := fmt.Sprintf("%v/%s/cache=%d/threads=%d/K=%d", format, f.name, cache, threads, k)
						fs := &flipStore{Store: mem, flip: f.flip}
						ds, err := blockstore.Open(fs)
						if err != nil {
							t.Fatal(err)
						}
						co, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelROP, Threads: threads, CacheBudgetBytes: cache}, Shards: k})
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
	}
}
