package shard_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// indexReads records the out-index blobs read through it, whole or as a
// range, and the bytes of every range read: of out-indices and of
// out-blocks.
type indexReads struct {
	storage.Store
	mu                  sync.Mutex
	names               []string
	pageBytes, runBytes int64
}

func (s *indexReads) ReadAllInto(name string, buf []byte) ([]byte, error) {
	if strings.HasPrefix(name, "oi/") {
		s.mu.Lock()
		s.names = append(s.names, name)
		s.mu.Unlock()
	}
	return s.Store.ReadAllInto(name, buf)
}

func (s *indexReads) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	s.mu.Lock()
	if strings.HasPrefix(name, "oi/") {
		s.names = append(s.names, name)
		s.pageBytes += n
	} else {
		s.runBytes += n
	}
	s.mu.Unlock()
	return s.Store.ReadAtInto(name, off, n, buf)
}

// take returns the names read since the last take, sorted, and the bytes of
// the out-index and out-block range reads among them.
func (s *indexReads) take() (names []string, pageBytes, runBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, pageBytes, runBytes = s.names, s.pageBytes, s.runBytes
	s.names, s.pageBytes, s.runBytes = nil, 0, 0
	slices.Sort(names)
	return names, pageBytes, runBytes
}

// TestROPVisitsOnlyLiveBlocks: a ROP iteration visits block (i,j) only when
// an active source has an edge in it. Which blocks those are is worked out
// here from the CRC-verified out-indices' degree bytes, not from the meta's
// masks, and every ROP iteration of a BFS must then read exactly their
// out-indices — synchronously, where a read is a Take, and through a
// read-ahead window that must end with nothing read and left unconsumed, so
// that a plan with one key too many fails — and be charged for exactly the
// page spans of their out-indices — the PageBytes pages holding the degree
// bytes of their first through their last live source — and for no
// sequential byte: the vertex arrays are resident. Some nonempty block of
// an active row must be dead along the way, or nothing was skipped. The
// values are the oracle's, and forced COP's, bit for bit, at threads {1, 4}
// × K {1, 2}.
func TestROPVisitsOnlyLiveBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.Web(2000, 12000, gen.WebParams{Alpha: 2.2, JumpFrac: 0.02}, rng)
	src := gen.BFSSource(g)
	const p = 16
	mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
	if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p}); err != nil {
		t.Fatal(err)
	}
	rec := &indexReads{Store: mem}
	ds, err := blockstore.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	l := ds.Layout
	idx := make([][][]byte, p)
	for i := range idx {
		idx[i] = make([][]byte, p)
		for j := range idx[i] {
			if ds.BlockEdgeCount[i][j] != 0 {
				if idx[i][j], err = ds.LoadOutIndexScratch(i, j, &blockstore.Scratch{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rec.take()
	// live lists the blocks an active source of f has a nonempty section
	// in, row-major, sums the page spans of their out-indices, and counts
	// the nonempty blocks of active rows that are not live.
	live := func(f *bitset.Frontier) (keys []blockstore.BlockKey, pageBytes int64, dead int) {
		for i := 0; i < p; i++ {
			lo, hi := l.Bounds(i)
			if f.CountIn(lo, hi) == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				if idx[i][j] == nil {
					continue
				}
				first, last := -1, -1 // byte offsets of the first and last live source's degrees
				f.RangeIn(lo, hi, func(v int) bool {
					// Groups of a 4-byte base and 64 degree bytes, 60 to a page.
					g := (v - lo) / 64
					if k := g/60*blockstore.PageBytes + g%60*68 + 4 + (v-lo)%64; idx[i][j][k] != 0 {
						if first < 0 {
							first = k
						}
						last = k
					}
					return true
				})
				if first < 0 {
					dead++
					continue
				}
				keys = append(keys, blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
				off := first / blockstore.PageBytes * blockstore.PageBytes
				end := min(last/blockstore.PageBytes*blockstore.PageBytes+blockstore.PageBytes, len(idx[i][j]))
				pageBytes += int64(end - off)
			}
		}
		return keys, pageBytes, dead
	}

	for _, depth := range []int{0, 2} {
		e := core.New(ds, core.Config{Model: core.ModelROP, Threads: 4, PrefetchDepth: depth})
		prog := algos.BFS{Source: src}
		s, frontier := prog.Init(e.Context())
		d := make([]float64, l.NumVertices)
		skipped := 0
		for iter := 0; !frontier.Empty(); iter++ {
			what := fmt.Sprintf("depth %d iteration %d", depth, iter)
			want, wantPages, dead := live(frontier)
			skipped += dead
			var wantNames []string
			for _, k := range want {
				wantNames = append(wantNames, fmt.Sprintf("oi/%d.%d", k.I, k.J))
			}
			slices.Sort(wantNames)

			next := bitset.NewFrontier(l.NumVertices)
			core.InitAccumulators(prog.Kind(), s, d)
			step := e.BeginIter(prog, iter, core.ModelROP, frontier, next)
			if err := step.Exec(s, d); err == nil {
				step.FinalizeOwned(s, d)
			}
			st, err := step.End()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, pageBytes, runBytes := rec.take()
			if !slices.Equal(got, wantNames) {
				t.Fatalf("%s: read out-indices %v, want %v", what, got, wantNames)
			}
			if st.PrefetchUnusedBytes != 0 {
				t.Fatalf("%s: %d bytes read ahead and never taken", what, st.PrefetchUnusedBytes)
			}
			if st.IO.SeqReadBytes != 0 || pageBytes != wantPages || st.IO.RandReadBytes != wantPages+runBytes {
				t.Fatalf("%s: charged %d sequential bytes and read %d of out-index pages (%d random with %d of runs), want none and the live blocks' page spans' %d", what, st.IO.SeqReadBytes, pageBytes, st.IO.RandReadBytes, runBytes, wantPages)
			}
			frontier = next
		}
		if skipped == 0 {
			t.Fatalf("depth %d: no nonempty block of an active row was ever dead; nothing was skipped", depth)
		}
		wantBits(t, fmt.Sprintf("depth %d step loop", depth), s, algos.OracleBFS(g, src))
	}

	oracle := algos.OracleBFS(g, src)
	cop, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelCOP}})
	if err != nil {
		t.Fatal(err)
	}
	copRes, err := cop.Run(algos.BFS{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "forced COP", copRes.Values, oracle)
	for _, threads := range []int{1, 4} {
		for _, k := range []int{1, 2} {
			co, err := shard.New(ds, shard.Config{Config: core.Config{Model: core.ModelROP, Threads: threads}, Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			res, err := co.Run(algos.BFS{Source: src})
			if err != nil {
				t.Fatal(err)
			}
			wantBits(t, fmt.Sprintf("ROP threads=%d K=%d", threads, k), res.Values, copRes.Values)
		}
	}
}
