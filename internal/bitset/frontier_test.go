package bitset

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFrontierEmpty(t *testing.T) {
	f := NewFrontier(100)
	if !f.Empty() || f.Count() != 0 || f.Len() != 100 {
		t.Fatalf("fresh frontier: empty=%v count=%d len=%d", f.Empty(), f.Count(), f.Len())
	}
}

func TestFrontierAdd(t *testing.T) {
	f := NewFrontier(100)
	if !f.Add(5) {
		t.Fatal("first Add returned false")
	}
	if f.Add(5) {
		t.Fatal("duplicate Add returned true")
	}
	if !f.Contains(5) || f.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if f.Count() != 1 {
		t.Fatalf("Count = %d", f.Count())
	}
}

func TestFullFrontier(t *testing.T) {
	f := FullFrontier(37)
	if f.Count() != 37 {
		t.Fatalf("FullFrontier: count=%d", f.Count())
	}
	for i := 0; i < 37; i++ {
		if !f.Contains(i) {
			t.Fatalf("vertex %d missing", i)
		}
	}
}

func TestFrontierMembersSortedBothModes(t *testing.T) {
	// A few members, added out of order.
	f := NewFrontier(1000)
	for _, v := range []int{50, 3, 700, 20} {
		f.Add(v)
	}
	if got := f.Members(); !reflect.DeepEqual(got, []int{3, 20, 50, 700}) {
		t.Fatalf("sparse Members = %v", got)
	}
	// Every vertex.
	d := FullFrontier(5)
	if got := d.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("dense Members = %v", got)
	}
}

func TestFrontierRangeIn(t *testing.T) {
	for _, dense := range []bool{false, true} {
		f := NewFrontier(512)
		for i := 0; i < 512; i += 64 {
			f.Add(i)
		}
		if dense {
			for i := 1; i <= 70; i++ {
				f.Add(i)
			}
		}
		var seen []int
		f.RangeIn(64, 448, func(v int) bool {
			if v%64 == 0 {
				seen = append(seen, v)
			}
			return true
		})
		want := []int{64, 128, 192, 256, 320, 384}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("dense=%v RangeIn = %v, want %v", dense, seen, want)
		}
	}
}

func TestFrontierCountIn(t *testing.T) {
	f := NewFrontier(1000)
	for i := 100; i < 200; i += 10 {
		f.Add(i)
	}
	if got := f.CountIn(100, 200); got != 10 {
		t.Fatalf("CountIn sparse = %d", got)
	}
	if got := f.CountIn(0, 100); got != 0 {
		t.Fatalf("CountIn empty range = %d", got)
	}
	d := FullFrontier(1000)
	if got := d.CountIn(250, 750); got != 500 {
		t.Fatalf("CountIn dense = %d", got)
	}
}

func TestFrontierAddAtomicConcurrent(t *testing.T) {
	const n = 10000
	f := NewFrontier(n)
	var wg sync.WaitGroup
	var news int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := int64(0)
			for i := 0; i < 5000; i++ {
				if f.AddAtomic(rng.Intn(n)) {
					local++
				}
			}
			mu.Lock()
			news += local
			mu.Unlock()
		}(int64(g))
	}
	wg.Wait()
	if int(news) != f.Count() {
		t.Fatalf("new-activation count %d != Count %d", news, f.Count())
	}
	// Cross-check against the bitmap.
	if f.Count() != f.Bitmap().Count() {
		t.Fatalf("Count %d != bitmap count %d", f.Count(), f.Bitmap().Count())
	}
}

func TestFrontierClone(t *testing.T) {
	f := NewFrontier(100)
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if f.Contains(2) {
		t.Fatal("clone mutation leaked")
	}
	if !c.Contains(1) {
		t.Fatal("clone lost member")
	}
}

func TestFrontierRangeStop(t *testing.T) {
	f := FullFrontier(100)
	count := 0
	f.Range(func(v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("Range visited %d, want 10", count)
	}
}

func TestFrontierSparseEqualsDenseSemantics(t *testing.T) {
	// The same set built one vertex at a time and merged in as a whole must
	// agree on every query.
	rng := rand.New(rand.NewSource(42))
	vals := map[int]bool{}
	for i := 0; i < 40; i++ {
		vals[rng.Intn(2000)] = true
	}
	added := NewFrontier(2000)
	for v := range vals {
		added.Add(v)
	}
	merged := NewFrontier(2000)
	merged.MergeAtomic(added)
	merged.Reindex()
	if merged.Count() != added.Count() || !reflect.DeepEqual(added.Members(), merged.Members()) {
		t.Fatal("two frontiers holding one set disagree")
	}
	for v := 0; v < 2000; v++ {
		if added.Contains(v) != vals[v] || merged.Contains(v) != vals[v] {
			t.Fatalf("Contains(%d) = %v / %v, want %v", v, added.Contains(v), merged.Contains(v), vals[v])
		}
	}
}

// checkOrderedReads compares every ordered read of f with the answers of
// its dense bitmap: Members, Range (whole and stopped early), and RangeIn /
// CountIn over random windows plus the empty and whole-universe ones.
func checkOrderedReads(t *testing.T, rng *rand.Rand, f *Frontier, label string) {
	t.Helper()
	n := f.Len()
	want := f.Bitmap().Members()
	if f.Count() != len(want) {
		t.Fatalf("%s: Count = %d, bitmap holds %d", label, f.Count(), len(want))
	}
	if got := f.Members(); !slices.Equal(got, want) {
		t.Fatalf("%s: Members = %v, bitmap %v", label, got, want)
	}
	var ranged []int
	f.Range(func(v int) bool { ranged = append(ranged, v); return true })
	if !slices.Equal(ranged, want) {
		t.Fatalf("%s: Range visited %v, bitmap %v", label, ranged, want)
	}
	if len(want) > 0 {
		stop := 1 + rng.Intn(len(want))
		seen := 0
		f.Range(func(int) bool { seen++; return seen < stop })
		if seen != stop {
			t.Fatalf("%s: Range told to stop after %d visited %d", label, stop, seen)
		}
	}
	windows := [][2]int{{0, n}, {0, 0}, {n, n}, {n / 2, n / 2}}
	for i := 0; i < 8; i++ {
		lo := rng.Intn(n + 1)
		windows = append(windows, [2]int{lo, lo + rng.Intn(n+1-lo)})
	}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		var in []int
		for _, v := range want {
			if v >= lo && v < hi {
				in = append(in, v)
			}
		}
		if got := f.CountIn(lo, hi); got != len(in) {
			t.Fatalf("%s: CountIn(%d, %d) = %d, bitmap %d", label, lo, hi, got, len(in))
		}
		var got []int
		f.RangeIn(lo, hi, func(v int) bool { got = append(got, v); return true })
		if !slices.Equal(got, in) {
			t.Fatalf("%s: RangeIn(%d, %d) visited %v, bitmap %v", label, lo, hi, got, in)
		}
		if len(in) > 0 {
			stop := 1 + rng.Intn(len(in))
			seen := 0
			f.RangeIn(lo, hi, func(int) bool { seen++; return seen < stop })
			if seen != stop {
				t.Fatalf("%s: RangeIn(%d, %d) told to stop after %d visited %d", label, lo, hi, stop, seen)
			}
		}
	}
}

// TestFrontierOrderedReadsMatchBitmap: whatever order members arrive in —
// through Add or through concurrent AddAtomic, at densities from a few
// members to most of the universe — and whether the frontier was built,
// merged and reindexed, or cloned, every ordered read answers exactly as the
// bitmap does.
func TestFrontierOrderedReadsMatchBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 64; trial++ {
		n := 64 + rng.Intn(1<<16-64+1)
		f := NewFrontier(n)
		limit := max(n/16, 64) // the densities straddle |V|/16
		var k int
		switch trial % 4 {
		case 0:
			k = rng.Intn(limit)
		case 1:
			k = limit
		case 2:
			k = limit + 1
		default:
			k = limit + rng.Intn(n-limit+1)
		}
		if k > n {
			k = n
		}
		order := rng.Perm(n)[:k]
		atomicAdds := trial%8 >= 4
		if atomicAdds {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(order); i += 8 {
						f.AddAtomic(order[i])
					}
				}(g)
			}
			wg.Wait()
		} else {
			for _, v := range order {
				f.Add(v)
			}
		}
		label := fmt.Sprintf("trial %d (n=%d k=%d atomic=%v)", trial, n, k, atomicAdds)

		clone := f.Clone()
		checkOrderedReads(t, rng, f, label)
		checkOrderedReads(t, rng, clone, label+" clone")

		// Two more members, below and above the others, after the first reads.
		for _, v := range []int{n - 1, 0} {
			f.Add(v)
		}
		checkOrderedReads(t, rng, f, label+" after late adds")

		merged := NewFrontier(n)
		merged.Add(n / 2)
		merged.Add(n / 3)
		merged.MergeAtomic(f)
		merged.MergeAtomic(clone)
		merged.Reindex()
		checkOrderedReads(t, rng, merged, label+" merged")
	}
}

// TestFrontierCountExact: the member count is the frontier's only state
// beside the bitmap. Four goroutines activate vertices with AddAtomic, many
// of them twice, while a fifth merges in a quiescent piece whose members
// share the adders' words but none of their bits (run under -race). Before
// Reindex the count is exactly the number of AddAtomic calls that returned
// true; after it, the bitmap's popcount, which is that number plus the
// piece's members.
func TestFrontierCountExact(t *testing.T) {
	const adders = 4
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 64, 1000, 1 << 16} {
		for _, draws := range []int{1, n / 64, n / 8, 2 * n} {
			f := NewFrontier(n)
			piece := NewFrontier(n)
			for v := 1; v < n; v += 2 {
				if rng.Intn(4) == 0 {
					piece.Add(v)
				}
			}
			picks := make([][]int, adders)
			for g := range picks {
				for i := 0; i < draws; i++ {
					picks[g] = append(picks[g], rng.Intn(n)&^1) // even vertices only
				}
			}
			var wg sync.WaitGroup
			var added atomic.Int64
			for g := range picks {
				wg.Add(1)
				go func(vs []int) {
					defer wg.Done()
					for _, v := range vs {
						if f.AddAtomic(v) {
							added.Add(1)
						}
					}
				}(picks[g])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.MergeAtomic(piece)
			}()
			wg.Wait()
			label := fmt.Sprintf("n=%d, %d draws per adder", n, draws)
			if got, want := f.Count(), int(added.Load()); got != want {
				t.Fatalf("%s: Count before Reindex = %d, %d AddAtomic calls returned true", label, got, want)
			}
			f.Reindex()
			popcount := f.Bitmap().Count()
			if f.Count() != popcount || popcount != int(added.Load())+piece.Count() {
				t.Fatalf("%s: Count after Reindex = %d, popcount %d, %d added + %d merged",
					label, f.Count(), popcount, added.Load(), piece.Count())
			}
		}
	}
}

// TestFrontierSparseReadsDoNotAllocate guards the reads ROP and the
// planners make every iteration: Range, RangeIn, CountIn, SumIn, RangeMasked
// and MaskedExtent walk the bitmap in place, at a sparse and at a dense
// frontier.
func TestFrontierSparseReadsDoNotAllocate(t *testing.T) {
	const n = 1 << 16
	weights := make([]int32, n)
	mask := make([]uint64, n/4/wordBits)
	for k := range mask {
		mask[k] = 0x5555_5555_5555_5555
	}
	for _, members := range []int{n / 4096, n / 8} {
		f := NewFrontier(n)
		for _, v := range rand.New(rand.NewSource(3)).Perm(n)[:members] {
			f.Add(v)
		}
		sink := 0
		for name, read := range map[string]func(){
			"Range":        func() { f.Range(func(v int) bool { sink += v; return true }) },
			"RangeIn":      func() { f.RangeIn(n/4, n/2, func(v int) bool { sink += v; return true }) },
			"CountIn":      func() { sink += f.CountIn(n/4, n/2) },
			"SumIn":        func() { sink += int(f.SumIn(n/4, n/2, weights)) },
			"RangeMasked":  func() { f.RangeMasked(n/4, mask, func(v int) bool { sink += v; return true }) },
			"MaskedExtent": func() { first, last, _ := f.MaskedExtent(n/4, mask); sink += first + last },
		} {
			if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
				t.Errorf("%s at %d members allocates %.0f times per call", name, members, allocs)
			}
		}
		_ = sink
	}
}

// TestFrontierRangeMaskedPathsAgree: the frontier ∧ mask walk ROP visits a
// block with ANDs bitmap words shifted to the mask's origin. It must yield
// exactly the members v ≥ lo with mask bit v−lo set, ascending, stop when
// told to, and agree with MaskedExtent's two ends: at origins on and off a
// word boundary, masks that end inside, at and past the universe, and
// frontiers from empty to dense.
func TestFrontierRangeMaskedPathsAgree(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(5))
	for _, members := range []int{0, 1, 40, n / 16, 400} {
		f := NewFrontier(n)
		for f.Count() < members {
			f.Add(rng.Intn(n))
		}
		for _, lo := range []int{0, 1, 63, 64, 130, 937, n - 1} {
			for _, words := range []int{0, 1, 2, 4, 16} {
				mask := make([]uint64, words)
				for k := range mask {
					mask[k] = rng.Uint64()
				}
				var want []int
				for v := lo; v < n && v < lo+64*words; v++ {
					if k := v - lo; f.Contains(v) && mask[k/64]>>(k%64)&1 == 1 {
						want = append(want, v)
					}
				}
				what := fmt.Sprintf("%d members, lo %d, %d mask words", members, lo, words)
				collect := func(rangeMasked func(int, []uint64, func(int) bool)) []int {
					var got []int
					rangeMasked(lo, mask, func(v int) bool {
						got = append(got, v)
						return true
					})
					return got
				}
				if got := collect(f.RangeMasked); !slices.Equal(got, want) {
					t.Fatalf("%s: Frontier.RangeMasked = %v, want %v", what, got, want)
				}
				if got := collect(f.Bitmap().RangeMasked); !slices.Equal(got, want) {
					t.Fatalf("%s: Bitset.RangeMasked = %v, want %v", what, got, want)
				}
				first, last, ok := f.MaskedExtent(lo, mask)
				if ok != (len(want) > 0) || ok && (first != want[0] || last != want[len(want)-1]) {
					t.Fatalf("%s: MaskedExtent = (%d, %d, %v), want the ends of %v", what, first, last, ok, want)
				}
				if df, dl, dok := f.Bitmap().maskedExtent(lo, mask); df != first || dl != last || dok != ok {
					t.Fatalf("%s: Bitset.maskedExtent = (%d, %d, %v), Frontier's (%d, %d, %v)", what, df, dl, dok, first, last, ok)
				}
				calls := 0
				f.RangeMasked(lo, mask, func(int) bool { calls++; return false })
				if calls > 1 {
					t.Fatalf("%s: %d calls after the first returned false", what, calls)
				}
			}
		}
	}
}

// TestFrontierSumInMatchesRangeIn: SumIn's word walk sums exactly the
// weights RangeIn's member walk visits — over random universes up to 700
// bits and frontiers from empty to full, for random ranges and for the empty,
// single-word and word-boundary ones.
func TestFrontierSumInMatchesRangeIn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(701)
		f := NewFrontier(n)
		density := []float64{0, 0.01, 0.2, 0.7, 1}[trial%5]
		w := make([]int32, n)
		for v := range w {
			w[v] = rng.Int31n(1000) - 100
			if rng.Float64() < density {
				f.Add(v)
			}
		}
		ranges := [][2]int{{0, n}, {n, n}, {0, 0}}
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
		}
		for b := 0; b+64 <= n; b += 64 {
			ranges = append(ranges, [2]int{b, b + 64}, [2]int{b + 1, b + 63}, [2]int{0, b + 64}, [2]int{b, b})
		}
		for _, r := range ranges {
			var want int64
			f.RangeIn(r[0], r[1], func(v int) bool { want += int64(w[v]); return true })
			if got := f.SumIn(r[0], r[1], w); got != want {
				t.Fatalf("n=%d, %d members: SumIn(%d, %d) = %d, RangeIn sums %d", n, f.Count(), r[0], r[1], got, want)
			}
		}
	}
}
