package shard_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/experiments"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// countingStore counts the bytes every read returns, whole or ranged: what
// the store actually hands the engine.
type countingStore struct {
	storage.Store
	read atomic.Int64
}

func (s *countingStore) ReadAll(name string) ([]byte, error) {
	b, err := s.Store.ReadAll(name)
	s.read.Add(int64(len(b)))
	return b, err
}

func (s *countingStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAllInto(name, buf)
	s.read.Add(int64(len(b)))
	return b, err
}

func (s *countingStore) ReadAt(name string, off, n int64) ([]byte, error) {
	b, err := s.Store.ReadAt(name, off, n)
	s.read.Add(int64(len(b)))
	return b, err
}

func (s *countingStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAtInto(name, off, n, buf)
	s.read.Add(int64(len(b)))
	return b, err
}

// TestChargedBytesAreReadBytes: the cost model charges the device for
// exactly the bytes the store reads, iteration by iteration, and writes
// nothing. Vertex state is resident, so no vertex array is charged; every
// block, index page and record run that is charged was read, and every one
// that was read was charged. This holds for every registered program, under
// ROP, COP and the hybrid predictor, at K = 1 and 2, synchronous and with
// two prefetch workers, without a cache and with one that holds part of the
// store (its hits are neither read nor charged; its promotions are both).
func TestChargedBytesAreReadBytes(t *testing.T) {
	web := testGraphs(t)["web"]
	var cached blockstore.CacheStats // summed over the cells with a cache
	for _, a := range append(experiments.StandardAlgos(), experiments.ExtendedAlgos()...) {
		g := web
		if a.Symmetric {
			g = g.Symmetrize()
		}
		mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
		if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: 8, Weighted: a.Weighted}); err != nil {
			t.Fatal(err)
		}
		for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
			for _, k := range []int{1, 2} {
				for _, prefetch := range []int{0, 2} {
					for _, cache := range []int64{0, 16 << 10} {
						what := fmt.Sprintf("%s/%v/K=%d/prefetch=%d/cache=%d", a.Name, model, k, prefetch, cache)
						cs := &countingStore{Store: mem}
						ds, err := blockstore.Open(cs)
						if err != nil {
							t.Fatal(err)
						}
						var last int64
						bad := ""
						co, err := shard.New(ds, shard.Config{Config: core.Config{
							Model: model, Threads: 2, PrefetchDepth: prefetch, CacheBudgetBytes: cache, MaxIters: 30,
							OnIteration: func(st core.IterStats) {
								read := cs.read.Load()
								if got := st.IO.ReadBytes(); got != read-last && bad == "" {
									bad = fmt.Sprintf("iteration %d (%v): charged %d bytes, the store read %d", st.Iter, st.Model, got, read-last)
								}
								if w := st.IO.WriteBytes(); w != 0 && bad == "" {
									bad = fmt.Sprintf("iteration %d (%v): charged %d bytes of writes", st.Iter, st.Model, w)
								}
								last = read
							},
						}, Shards: k})
						if err != nil {
							t.Fatal(err)
						}
						cs.read.Store(0)
						res, err := co.Run(a.New(web))
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if bad != "" {
							t.Fatalf("%s: %s", what, bad)
						}
						if charged, read := res.TotalIO().ReadBytes(), cs.read.Load(); charged != read || read == 0 {
							t.Fatalf("%s: charged %d bytes over the run, the store read %d", what, charged, read)
						}
						cached.Hits += res.Cache.Hits
						cached.Promotions += res.Cache.Promotions
						cached.AdmissionRejected += res.Cache.AdmissionRejected
					}
				}
			}
		}
	}
	if cached.Hits == 0 || cached.Promotions == 0 || cached.AdmissionRejected == 0 {
		t.Fatalf("the cached cells never hit, promoted and refused all three (%+v): the cache half covers less than it claims", cached)
	}
}
