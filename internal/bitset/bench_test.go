package bitset

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
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
// count, drawn from a seeded permutation and added in drawn order.
func benchFrontier(members int) *Frontier {
	const n = 1 << 20
	f := NewFrontier(n)
	for _, v := range rand.New(rand.NewSource(1)).Perm(n)[:members] {
		f.Add(v)
	}
	return f
}

// BenchmarkFrontierRangeIn walks the frontier interval by interval, as the
// predictor and every ROP row do: one op is P = 16 RangeIn windows covering
// the universe, at |V|/4096, |V|/32 and |V|/8 members, after one untimed
// pass.
func BenchmarkFrontierRangeIn(b *testing.B) {
	const n, p = 1 << 20, 16
	for _, den := range []int{4096, 32, 8} {
		f := benchFrontier(n / den)
		b.Run(fmt.Sprintf("members=n/%d", den), func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			pass := func() {
				for w := 0; w < p; w++ {
					f.RangeIn(w*n/p, (w+1)*n/p, func(v int) bool { sum += v; return true })
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
// interval hold an active vertex") at |V|/32 members added out of order: one
// op is P = 16 windows, after one untimed pass.
func BenchmarkFrontierCountIn(b *testing.B) {
	const n, p = 1 << 20, 16
	f := benchFrontier(n / 32)
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

// BenchmarkFrontierAddAtomic times concurrent activation as ROP's push
// workers make it: one op is one AddAtomic of a vertex not yet active. The
// workers claim op numbers 1 024 at a time; op k activates vertex
// perm[k mod 2¹⁸] of frontier k / 2¹⁸, so every frontier fills from empty to
// full under all the workers at once.
func BenchmarkFrontierAddAtomic(b *testing.B) {
	const n, chunk = 1 << 18, 1024
	perm := rand.New(rand.NewSource(1)).Perm(n)
	fs := make([]*Frontier, (b.N+runtime.GOMAXPROCS(0)*chunk)/n+1)
	for i := range fs {
		fs[i] = NewFrontier(n)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var k, end int64
		for pb.Next() {
			if k == end {
				end = next.Add(chunk)
				k = end - chunk
			}
			fs[k/n].AddAtomic(perm[k%n])
			k++
		}
	})
}
