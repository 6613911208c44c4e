package blockstore

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLayoutBounds(t *testing.T) {
	l := NewLayout(10, 2)
	lo, hi := l.Bounds(0)
	if lo != 0 || hi != 5 {
		t.Fatalf("Bounds(0) = [%d,%d)", lo, hi)
	}
	lo, hi = l.Bounds(1)
	if lo != 5 || hi != 10 {
		t.Fatalf("Bounds(1) = [%d,%d)", lo, hi)
	}
}

func TestLayoutUnevenLast(t *testing.T) {
	l := NewLayout(10, 3) // sizes 4,4,2
	if s := []int{l.Size(0), l.Size(1), l.Size(2)}; !reflect.DeepEqual(s, []int{4, 4, 2}) {
		t.Fatalf("sizes = %v", s)
	}
}

func TestLayoutDegenerateEmptyTail(t *testing.T) {
	// 9 vertices, 5 intervals: ceil=2 → sizes 2,2,2,2,1. 10 vertices, 4:
	// 3,3,3,1. Extreme: 5 vertices, 4 intervals: ceil=2 → 2,2,1,0.
	l := NewLayout(5, 4)
	if l.Size(3) != 0 {
		t.Fatalf("Size(3) = %d, want 0", l.Size(3))
	}
	total := 0
	for i := 0; i < l.P; i++ {
		total += l.Size(i)
	}
	if total != 5 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestLayoutClampsP(t *testing.T) {
	l := NewLayout(3, 10)
	if l.P != 3 {
		t.Fatalf("P = %d, want clamped to 3", l.P)
	}
}

func TestLayoutIntervalOfAndLocal(t *testing.T) {
	l := NewLayout(10, 3)
	cases := []struct {
		v        uint32
		interval int
		local    int
	}{
		{0, 0, 0}, {3, 0, 3}, {4, 1, 0}, {7, 1, 3}, {8, 2, 0}, {9, 2, 1},
	}
	for _, c := range cases {
		if got := l.IntervalOf(c.v); got != c.interval {
			t.Errorf("IntervalOf(%d) = %d, want %d", c.v, got, c.interval)
		}
		if lo, _ := l.Bounds(c.interval); int(c.v)-lo != c.local {
			t.Errorf("vertex %d is local %d of interval %d, want %d", c.v, int(c.v)-lo, c.interval, c.local)
		}
	}
}

func TestLayoutPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative n":     func() { NewLayout(-1, 2) },
		"zero p":         func() { NewLayout(5, 0) },
		"bad interval":   func() { NewLayout(10, 2).Bounds(2) },
		"vertex too big": func() { NewLayout(10, 2).IntervalOf(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: intervals tile [0, n) exactly and IntervalOf agrees with Bounds.
func TestQuickLayoutPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1000)
		p := 1 + rng.Intn(20)
		l := NewLayout(n, p)
		covered := 0
		for i := 0; i < l.P; i++ {
			lo, hi := l.Bounds(i)
			if lo != covered {
				return false
			}
			covered = hi
			for v := lo; v < hi; v++ {
				if l.IntervalOf(uint32(v)) != i {
					return false
				}
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChoosePShrinksWithBudget(t *testing.T) {
	const v, e = 1 << 20, int64(16 << 20)
	big := ChooseP(v, e, true, 1<<30)
	small := ChooseP(v, e, true, 8<<20)
	if big > small {
		t.Fatalf("larger budget chose more partitions: %d vs %d", big, small)
	}
	if small < 2 {
		t.Fatalf("tight budget still chose P=%d", small)
	}
}

func TestChoosePFitsWorkingSet(t *testing.T) {
	const v, e = 1 << 18, int64(4 << 20)
	budget := int64(4 << 20)
	p := ChooseP(v, e, false, budget)
	interval := int64((v + p - 1) / p)
	block := e / int64(p*p) * 4 * 4 // skew factor 4, 4B records
	groups := (interval + 63) / 64  // of the out-index: 68 bytes each, 60 to a 4 KiB page
	index := (groups-1)/60*4096 + ((groups-1)%60+1)*68
	working := block + index + 4*interval*VertexValueBytes
	if working > budget {
		t.Fatalf("P=%d working set %d exceeds budget %d", p, working, budget)
	}
}

func TestChoosePWeightedNeedsMore(t *testing.T) {
	const v, e = 1 << 18, int64(32 << 20)
	budget := int64(8 << 20)
	pw := ChooseP(v, e, true, budget)
	pu := ChooseP(v, e, false, budget)
	if pw < pu {
		t.Fatalf("weighted records chose fewer partitions: %d vs %d", pw, pu)
	}
}

func TestChoosePPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ChooseP(100, 100, true, 0)
}
