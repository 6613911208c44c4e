package bitset

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if got := b.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTest(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set(10)":  func() { b.Set(10) },
		"Test(-1)": func() { b.Test(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCount(t *testing.T) {
	b := New(300)
	want := 0
	for i := 0; i < 300; i += 7 {
		b.Set(i)
		want++
	}
	if got := b.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(517)
	ref := make([]bool, 517)
	for i := 0; i < 200; i++ {
		v := rng.Intn(517)
		b.Set(v)
		ref[v] = true
	}
	prefix := make([]int, 518) // prefix[i] = set bits below i
	for i, set := range ref {
		prefix[i+1] = prefix[i]
		if set {
			prefix[i+1]++
		}
	}
	for lo := 0; lo <= 517; lo++ {
		for hi := lo; hi <= 517; hi++ {
			if got, want := b.CountRange(lo, hi), prefix[hi]-prefix[lo]; got != want {
				t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, got)
		}
	}
}

func TestReset(t *testing.T) {
	b := New(77)
	b.SetAll()
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Fatalf("Count = %d after Reset", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	b := New(70)
	b.Set(3)
	c := b.Clone()
	c.Set(5)
	if b.Test(5) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Test(3) {
		t.Fatal("clone lost original bit")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(99), New(99)
	a.Set(42)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	b.Set(42)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	if a.Equal(New(98)) {
		t.Fatal("different capacities reported equal")
	}
}

func TestNextSet(t *testing.T) {
	b := New(200)
	b.Set(5)
	b.Set(64)
	b.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := b.NextSet(200); got != -1 {
		t.Errorf("NextSet(200) = %d, want -1", got)
	}
	if got := New(10).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestRangeOrderAndStop(t *testing.T) {
	b := New(300)
	for _, v := range []int{7, 70, 170, 270} {
		b.Set(v)
	}
	var seen []int
	b.Range(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []int{7, 70, 170}) {
		t.Fatalf("Range visited %v", seen)
	}
}

func TestRangeIn(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 10 {
		b.Set(i)
	}
	var seen []int
	b.RangeIn(15, 75, func(i int) bool {
		seen = append(seen, i)
		return true
	})
	if !reflect.DeepEqual(seen, []int{20, 30, 40, 50, 60, 70}) {
		t.Fatalf("RangeIn = %v", seen)
	}
}

func TestMembers(t *testing.T) {
	b := New(128)
	want := []int{0, 63, 64, 127}
	for _, v := range want {
		b.Set(v)
	}
	if got := b.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	b := New(16)
	b.Set(1)
	b.Set(5)
	if got := b.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestAtomicTestAndSetUniqueWinner(t *testing.T) {
	const n = 1024
	b := New(n)
	wins := make([]int32, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.AtomicTestAndSet(i) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := int32(0)
	for _, w := range wins {
		total += w
	}
	if total != n {
		t.Fatalf("total wins = %d, want %d (each bit exactly one winner)", total, n)
	}
}

// Property: Count equals the number of distinct values Set.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(vals []uint16) bool {
		b := New(1 << 16)
		distinct := map[uint16]bool{}
		for _, v := range vals {
			b.Set(int(v))
			distinct[v] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Members is sorted ascending and round-trips through Set.
func TestQuickMembersRoundTrip(t *testing.T) {
	f := func(vals []uint12like) bool {
		b := New(4096)
		want := map[int]bool{}
		for _, v := range vals {
			b.Set(int(v))
			want[int(v)] = true
		}
		m := b.Members()
		if len(m) != len(want) {
			return false
		}
		for i, v := range m {
			if !want[v] {
				return false
			}
			if i > 0 && m[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// uint12like generates values in [0, 4096) for quick.Check.
type uint12like int

// Generate implements quick.Generator.
func (uint12like) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(uint12like(r.Intn(4096)))
}
