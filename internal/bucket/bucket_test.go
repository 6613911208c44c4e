package bucket

import (
	"math/rand"
	"sort"
	"testing"
)

// popAll drains the structure, returning the sequence of (priority, sorted
// member) pairs.
type popped struct {
	pri     int64
	members []int
}

func drain(b *Buckets) []popped {
	var out []popped
	for {
		f, pri, ok := b.NextBucket()
		if !ok {
			return out
		}
		out = append(out, popped{pri, f.Members()})
	}
}

func TestBucketsDrainIncreasing(t *testing.T) {
	b := MakeBuckets(16, Increasing, 4)
	ins := map[int]int64{3: 7, 5: 2, 9: 2, 1: 100, 12: 7}
	for v, p := range ins {
		b.UpdateBucket(v, p)
	}
	if got := b.Pending(); got != len(ins) {
		t.Fatalf("Pending = %d, want %d", got, len(ins))
	}
	got := drain(b)
	want := []popped{
		{2, []int{5, 9}},
		{7, []int{3, 12}},
		{100, []int{1}},
	}
	checkPops(t, got, want)
	if b.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", b.Pending())
	}
}

func TestBucketsDrainDecreasing(t *testing.T) {
	b := MakeBuckets(16, Decreasing, 4)
	for v, p := range map[int]int64{3: 7, 5: 2, 9: 2, 1: 100, 12: 7} {
		b.UpdateBucket(v, p)
	}
	got := drain(b)
	want := []popped{
		{100, []int{1}},
		{7, []int{3, 12}},
		{2, []int{5, 9}},
	}
	checkPops(t, got, want)
}

// TestBucketsLazyMove pins lazy deletion: a vertex re-prioritized to a
// later bucket before its original bucket is popped must surface only in
// the later bucket.
func TestBucketsLazyMove(t *testing.T) {
	b := MakeBuckets(8, Increasing, 8)
	b.UpdateBucket(2, 1)
	b.UpdateBucket(4, 1)
	b.UpdateBucket(4, 5) // moves before the first pop
	got := drain(b)
	want := []popped{
		{1, []int{2}},
		{5, []int{4}},
	}
	checkPops(t, got, want)
}

// TestBucketsRemove pins lazy removal: a removed vertex never surfaces.
func TestBucketsRemove(t *testing.T) {
	b := MakeBuckets(8, Increasing, 8)
	b.UpdateBucket(2, 1)
	b.UpdateBucket(3, 1)
	b.Remove(2)
	got := drain(b)
	checkPops(t, got, []popped{{1, []int{3}}})
}

// TestBucketsClampIntoCurrent pins the monotone clamp: an update mapping
// at or before the bucket being drained is re-processed in the current
// bucket rather than lost in the past.
func TestBucketsClampIntoCurrent(t *testing.T) {
	b := MakeBuckets(8, Increasing, 8)
	b.UpdateBucket(1, 3)
	f, pri, ok := b.NextBucket()
	if !ok || pri != 3 || f.Count() != 1 {
		t.Fatalf("first pop = (%v, %d, %v), want ({1}, 3, true)", f, pri, ok)
	}
	// Reinsert at the same priority — same-bucket reinsertion, the
	// delta-stepping inner loop.
	b.UpdateBucket(5, 3)
	f, pri, ok = b.NextBucket()
	if !ok || pri != 3 || !f.Contains(5) {
		t.Fatalf("same-bucket reinsertion pop = (%v, %d, %v), want ({5}, 3, true)", f, pri, ok)
	}
}

// TestBucketsOverflowRefill forces priorities far past the window so the
// overflow path and window refill both run.
func TestBucketsOverflowRefill(t *testing.T) {
	b := MakeBuckets(32, Increasing, 2) // 2-wide window: nearly everything overflows
	for v := 0; v < 20; v++ {
		b.UpdateBucket(v, int64(v*13))
	}
	got := drain(b)
	if len(got) != 20 {
		t.Fatalf("popped %d buckets, want 20 singletons", len(got))
	}
	for i, p := range got {
		if p.pri != int64(i*13) || len(p.members) != 1 || p.members[0] != i {
			t.Fatalf("pop %d = %+v, want pri %d member %d", i, p, i*13, i)
		}
	}
}

// TestBucketsPropertyVsSortedMap is the satellite property test: random
// interleavings of UpdateBucket (monotone: never before the bucket being
// drained) and NextBucket against a sorted-map reference, both orders.
func TestBucketsPropertyVsSortedMap(t *testing.T) {
	for _, order := range []Order{Increasing, Decreasing} {
		for seed := int64(1); seed <= 20; seed++ {
			runBucketProperty(t, order, seed)
		}
	}
}

func runBucketProperty(t *testing.T, order Order, seed int64) {
	t.Helper()
	const n = 128
	rng := rand.New(rand.NewSource(seed))
	nb := 1 + rng.Intn(8) // small windows stress overflow + refill
	b := MakeBuckets(n, order, nb)
	ref := map[int]int64{} // reference: vertex -> live priority

	// floor is the last popped priority: generated updates never map
	// strictly before it (the monotone-progress contract the clamp is
	// built for).
	var floor int64
	hasFloor := false
	randPri := func() int64 {
		p := int64(rng.Intn(200)) - 100
		if hasFloor {
			if order == Increasing && p < floor {
				p = floor + int64(rng.Intn(40))
			}
			if order == Decreasing && p > floor {
				p = floor - int64(rng.Intn(40))
			}
		}
		return p
	}

	for step := 0; step < 300; step++ {
		switch rng.Intn(3) {
		case 0, 1: // batch of updates
			for i := 0; i < 1+rng.Intn(10); i++ {
				v := rng.Intn(n)
				p := randPri()
				b.UpdateBucket(v, p)
				ref[v] = p
			}
		case 2: // pop
			f, pri, ok := b.NextBucket()
			wantMembers, wantPri := refPop(ref, order)
			if ok != (wantMembers != nil) {
				t.Fatalf("seed %d order %v step %d: pop ok=%v, ref ok=%v", seed, order, step, ok, wantMembers != nil)
			}
			if !ok {
				continue
			}
			if pri != wantPri {
				t.Fatalf("seed %d order %v step %d: pop pri=%d, ref pri=%d", seed, order, step, pri, wantPri)
			}
			if got := f.Members(); !equalInts(got, wantMembers) {
				t.Fatalf("seed %d order %v step %d: pop members %v, ref %v", seed, order, step, got, wantMembers)
			}
			for _, v := range wantMembers {
				delete(ref, v)
			}
			floor, hasFloor = pri, true
			if b.Pending() != len(ref) {
				t.Fatalf("seed %d order %v step %d: Pending=%d, ref live=%d", seed, order, step, b.Pending(), len(ref))
			}
		}
	}
	// Final full drain must empty both.
	for {
		f, pri, ok := b.NextBucket()
		wantMembers, wantPri := refPop(ref, order)
		if ok != (wantMembers != nil) {
			t.Fatalf("seed %d order %v drain: ok=%v, ref ok=%v", seed, order, ok, wantMembers != nil)
		}
		if !ok {
			break
		}
		if pri != wantPri || !equalInts(f.Members(), wantMembers) {
			t.Fatalf("seed %d order %v drain: (%d,%v), ref (%d,%v)", seed, order, pri, f.Members(), wantPri, wantMembers)
		}
		for _, v := range wantMembers {
			delete(ref, v)
		}
	}
	if len(ref) != 0 {
		t.Fatalf("seed %d order %v: structure empty but reference holds %v", seed, order, ref)
	}
}

// refPop computes what the reference sorted-map would pop: the extreme
// priority group in drain order, members ascending. Returns (nil, 0) when
// empty.
func refPop(ref map[int]int64, order Order) ([]int, int64) {
	if len(ref) == 0 {
		return nil, 0
	}
	first := true
	var best int64
	for _, p := range ref {
		if first || (order == Increasing && p < best) || (order == Decreasing && p > best) {
			best, first = p, false
		}
	}
	var members []int
	for v, p := range ref {
		if p == best {
			members = append(members, v)
		}
	}
	sort.Ints(members)
	return members, best
}

func checkPops(t *testing.T, got, want []popped) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("popped %d buckets, want %d: got %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].pri != want[i].pri || !equalInts(got[i].members, want[i].members) {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
