package bitset

import (
	"math/rand"
	"sync"
	"testing"
)

// TestMergeDisjointPiecesEqualsUnsharded is the shard-boundary merge
// property: splitting a frontier's universe into K disjoint interval
// ranges, building one piece frontier per range, and OR-merging the pieces
// reproduces the unsharded frontier exactly — members, count and every range
// count.
func TestMergeDisjointPiecesEqualsUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		k := 1 + rng.Intn(8)
		density := rng.Float64() * rng.Float64() // bias sparse, cover dense

		whole := NewFrontier(n)
		pieces := make([]*Frontier, k)
		for s := range pieces {
			pieces[s] = NewFrontier(n)
		}
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				whole.Add(v)
				pieces[v*k/n].Add(v)
			}
		}

		merged := NewFrontier(n)
		for _, p := range pieces {
			merged.MergeAtomic(p)
		}
		merged.Reindex()

		if !merged.Bitmap().Equal(whole.Bitmap()) {
			t.Fatalf("trial %d (n=%d k=%d): merged bitmap differs from unsharded", trial, n, k)
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("trial %d: merged count %d, unsharded %d", trial, merged.Count(), whole.Count())
		}
		wm, mm := whole.Members(), merged.Members()
		if len(wm) != len(mm) {
			t.Fatalf("trial %d: member count %d vs %d", trial, len(mm), len(wm))
		}
		for i := range wm {
			if wm[i] != mm[i] {
				t.Fatalf("trial %d: member %d is %d, want %d", trial, i, mm[i], wm[i])
			}
		}
		for probe := 0; probe < 16; probe++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			if merged.CountIn(lo, hi) != whole.CountIn(lo, hi) {
				t.Fatalf("trial %d: CountIn(%d,%d) %d, want %d",
					trial, lo, hi, merged.CountIn(lo, hi), whole.CountIn(lo, hi))
			}
		}
	}
}

// TestMergeAtomicConcurrentPieces drives MergeAtomic from K goroutines at
// once — the shard barrier, where every worker ORs its piece into the
// shared next frontier. Run under -race this asserts the merge is data-race
// free; semantically, the merged bitmap must equal the pieces' union.
func TestMergeAtomicConcurrentPieces(t *testing.T) {
	const n = 4096
	const k = 4
	rng := rand.New(rand.NewSource(7))

	pieces := make([]*Frontier, k)
	union := New(n)
	for s := range pieces {
		pieces[s] = NewFrontier(n)
		lo, hi := s*n/k, (s+1)*n/k
		for v := lo; v < hi; v++ {
			if rng.Float64() < 0.2 {
				pieces[s].Add(v)
				union.Set(v)
			}
		}
	}

	merged := NewFrontier(n)
	var mergers sync.WaitGroup
	for _, p := range pieces {
		mergers.Add(1)
		go func(p *Frontier) {
			defer mergers.Done()
			merged.MergeAtomic(p)
		}(p)
	}
	mergers.Wait()

	merged.Reindex()
	if !merged.Bitmap().Equal(union) {
		t.Fatal("merged bitmap differs from the pieces' union")
	}
}
