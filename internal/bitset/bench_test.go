package bitset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func BenchmarkAtomicTestAndSet(b *testing.B) {
	s := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AtomicTestAndSet(i & (1<<20 - 1))
	}
}

func BenchmarkBitsetRangeDense(b *testing.B) {
	s := New(1 << 20)
	s.SetAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		s.Range(func(int) bool { count++; return true })
	}
}

func BenchmarkBitsetCountRange(b *testing.B) {
	s := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		s.Set(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountRange(1<<18, 3<<18)
	}
}

func BenchmarkFrontierAddSparse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFrontier(1 << 20)
		for v := 0; v < 64; v++ {
			f.Add(v * 1000)
		}
	}
}

func BenchmarkFrontierContains(b *testing.B) {
	f := FullFrontier(1 << 20)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if f.Contains(i & (1<<20 - 1)) {
			hits++
		}
	}
	_ = hits
}

// benchFrontier builds a frontier over 2²⁰ vertices with the given member
// count, drawn from a seeded permutation and added in ascending or in drawn
// order.
func benchFrontier(members int, shuffled bool) *Frontier {
	const n = 1 << 20
	f := NewFrontier(n)
	picked := rand.New(rand.NewSource(1)).Perm(n)[:members]
	if !shuffled {
		sort.Ints(picked)
	}
	for _, v := range picked {
		f.Add(v)
	}
	return f
}

// BenchmarkFrontierRangeIn walks the frontier interval by interval, as the
// predictor and every ROP row do: one op is P = 16 RangeIn windows covering
// the universe. The sparse cases hold |V|/32 members (in the list); the
// dense case holds |V|/8, past the sparse capacity (bitmap scan). One
// untimed pass comes first, so sparse_shuffled is the steady state after
// the list was put in order, not the one sort that does it.
func BenchmarkFrontierRangeIn(b *testing.B) {
	const n, p = 1 << 20, 16
	for _, c := range []struct {
		name  string
		f     *Frontier
		dense bool
	}{
		{"sparse_inorder", benchFrontier(n/32, false), false},
		{"sparse_shuffled", benchFrontier(n/32, true), false},
		{"dense", benchFrontier(n/8, true), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.f.IsDense() != c.dense {
				b.Fatalf("setup: IsDense = %v", c.f.IsDense())
			}
			b.ReportAllocs()
			sum := 0
			pass := func() {
				for w := 0; w < p; w++ {
					c.f.RangeIn(w*n/p, (w+1)*n/p, func(v int) bool { sum += v; return true })
				}
			}
			pass()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			benchSink = sum
		})
	}
}

// BenchmarkFrontierCountIn is the selective-scheduling test ("does this
// interval hold an active vertex") on a sparse frontier built out of order:
// one op is P = 16 windows, after one untimed pass.
func BenchmarkFrontierCountIn(b *testing.B) {
	const n, p = 1 << 20, 16
	f := benchFrontier(n/32, true)
	b.ReportAllocs()
	sum := 0
	pass := func() {
		for w := 0; w < p; w++ {
			sum += f.CountIn(w*n/p, (w+1)*n/p)
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	benchSink = sum
}

var benchSink int

// BenchmarkFrontierOrdered times the one ordering an out-of-order sparse
// frontier owes per iteration, over 2¹⁸ vertices: m members, added in a
// seeded random order, are put back in arrival order and ordered again.
// The sub-benchmark names the path rebuildFromBitmap picks for m; the op
// includes copying the m arrivals back.
func BenchmarkFrontierOrdered(b *testing.B) {
	const n = 1 << 18
	for _, m := range []int{8, 1024, 16384} {
		f := NewFrontier(n)
		for _, v := range rand.New(rand.NewSource(1)).Perm(n)[:m] {
			f.Add(v)
		}
		if f.IsDense() {
			b.Fatalf("m=%d: expected a sparse frontier", m)
		}
		arrival := append([]int(nil), f.sparse...)
		path := "sort"
		if rebuildFromBitmap(m, len(f.dense.words)) {
			path = "bitmap"
		}
		b.Run(fmt.Sprintf("m=%d/%s", m, path), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(f.sparse, arrival)
				f.unsorted = true
				benchSink += len(f.ordered())
			}
		})
	}
}
