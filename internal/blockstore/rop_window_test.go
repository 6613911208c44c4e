package blockstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"husgraph/internal/bitset"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// ropWindowPlan is what a ROP iteration over every row opens its window
// with: the extent of every block for f at i·P+j, and the out-index of every
// live block, row-major.
func ropWindowPlan(ds *DualStore, f *bitset.Frontier) ([]Extent, []BlockKey) {
	p := ds.Layout.P
	extents := make([]Extent, p*p)
	var plan []BlockKey
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if extents[i*p+j] = ds.Extent(i, j, f); extents[i*p+j].Live() {
				plan = append(plan, BlockKey{Kind: KindOutIndex, I: i, J: j})
			}
		}
	}
	return extents, plan
}

// TestROPWindowDeliversActiveSections: a ROP window entry is its block's
// active sections — one per source of the frontier with an edge in the
// block, in ascending source order, each byte-equal to the source's
// section of the whole out-block, read and CRC-checked on its own and cut
// at the honest out-index (the window's range reads are not the reference)
// — whether the runs come from the device, from the run cache or from a
// promoted block, over a raw, a mixed and a weighted store, inline and read
// ahead. A fully consumed
// window wastes nothing, and its workers are gone afterwards (leaktest.Main).
func TestROPWindowDeliversActiveSections(t *testing.T) {
	const n, p = 3000, 4
	rng := rand.New(rand.NewSource(47))
	g := graph.New(n)
	for k := 0; k < 6*n; k++ {
		g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	g.Dedup()
	// Sparse to dense, and the densest twice: its second window reads
	// every run again, through whatever the first one cached.
	var frontiers []*bitset.Frontier
	for _, density := range []float64{0.002, 0.03, 0.2, 0.8, 0.8} {
		f := bitset.NewFrontier(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				f.Add(v)
			}
		}
		frontiers = append(frontiers, f)
	}
	for _, opts := range []Options{{P: p}, {P: p, Format: FormatMixed}, {P: p, Weighted: true}} {
		ds, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 2} {
			for _, budget := range []int64{0, 64 << 20} {
				var cache *BlockCache
				if budget > 0 {
					cache = NewBlockCache(budget)
				}
				for fi, f := range frontiers {
					what := fmt.Sprintf("%v/weighted=%v/depth=%d/cache=%d/frontier %d", opts.Format, opts.Weighted, depth, budget, fi)
					extents, plan := ropWindowPlan(ds, f)
					pf := ds.NewPrefetcher(plan, extents, f, depth, cache)
					for _, key := range plan {
						res := pf.Take(key)
						if res.Err != nil {
							t.Fatalf("%s: %v(%d,%d): %v", what, key.Kind, key.I, key.J, res.Err)
						}
						idx, err := loadOutIndexWords(ds, key.I, key.J)
						if err != nil {
							t.Fatal(err)
						}
						block, err := ds.LoadOutPayload(key.I, key.J)
						if err != nil {
							t.Fatal(err)
						}
						lo, hi := ds.Layout.Bounds(key.I)
						k := 0
						for v := lo; v < hi; v++ {
							if !f.Contains(v) || idx[v-lo] == idx[v-lo+1] {
								continue
							}
							if k >= len(res.Sections) || res.Sections[k].V != int32(v) {
								t.Fatalf("%s: block (%d,%d): section %d is not source %d's: %d sections delivered", what, key.I, key.J, k, v, len(res.Sections))
							}
							if !eqBytes(res.Sections[k].Recs, block[idx[v-lo]:idx[v-lo+1]]) {
								t.Fatalf("%s: block (%d,%d) source %d: delivered section differs from the whole block's", what, key.I, key.J, v)
							}
							k++
						}
						if k != len(res.Sections) {
							t.Fatalf("%s: block (%d,%d): %d sections delivered, %d active sources with an edge in it", what, key.I, key.J, len(res.Sections), k)
						}
						res.Release()
					}
					pf.Close()
					if pf.UnusedBytes() != 0 {
						t.Fatalf("%s: a fully consumed window reported %d unused bytes", what, pf.UnusedBytes())
					}
				}
				if cache != nil {
					if st := cache.Stats(); st.RunHits == 0 || st.Promotions == 0 {
						t.Fatalf("%v/weighted=%v/depth=%d: the cache served %d runs and promoted %d blocks; the test needs both", opts.Format, opts.Weighted, depth, st.RunHits, st.Promotions)
					}
				}
			}
		}
	}
}

// TestPrefetcherCapsWorkersAtThePlan: a depth beyond the plan's length
// starts one worker, and holds one read-ahead token, per entry — a deeper
// pool would only wait for entries that do not exist — and every entry is
// still delivered, once, in plan order.
func TestPrefetcherCapsWorkersAtThePlan(t *testing.T) {
	ds := prefetchStore(t, FormatRaw)
	plan := inBlockSchedule(ds)[:3]
	before := runtime.NumGoroutine()
	pf := ds.NewPrefetcher(plan, nil, nil, 64, nil)
	started := runtime.NumGoroutine() - before
	if cap(pf.sem) != len(plan) || started > len(plan) {
		t.Fatalf("depth 64 over a %d-entry plan: %d tokens and %d goroutines started, want %d of each", len(plan), cap(pf.sem), started, len(plan))
	}
	for _, key := range plan {
		res := pf.Next()
		if res.Err != nil || res.Key != key {
			t.Fatalf("got %+v (%v), want %+v", res.Key, res.Err, key)
		}
		res.Release()
	}
	pf.Close()
	if pf.UnusedBytes() != 0 {
		t.Fatalf("a fully consumed window reported %d unused bytes", pf.UnusedBytes())
	}
}

// TestTakeHandsItsTokenBack: a result Take delivers holds no read-ahead
// token, so concurrent consumers pushing their blocks do not cap each other
// at depth. At depth 1 one consumer holds every entry of a plan at once;
// were the first Take's token held until its Release, the second Take would
// wait for it forever.
func TestTakeHandsItsTokenBack(t *testing.T) {
	ds := prefetchStore(t, FormatRaw)
	plan := inBlockSchedule(ds)
	pf := ds.NewPrefetcher(plan, nil, nil, 1, nil)
	held := make(chan []*PrefetchResult)
	go func() {
		var rs []*PrefetchResult
		for _, key := range plan {
			rs = append(rs, pf.Take(key))
		}
		held <- rs
	}()
	select {
	case rs := <-held:
		for k, res := range rs {
			if res.Err != nil || res.Key != plan[k] {
				t.Fatalf("entry %d: got %+v (%v), want %+v", k, res.Key, res.Err, plan[k])
			}
			res.Release()
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("depth 1: %d entries taken and held did not all arrive; a taken result kept its token", len(plan))
	}
	pf.Close()
	if pf.UnusedBytes() != 0 {
		t.Fatalf("a fully consumed window reported %d unused bytes", pf.UnusedBytes())
	}
}
