package bitset

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// sparseThresholdDenom controls when a Frontier keeps a sparse member list:
// while |members| ≤ n/sparseThresholdDenom the sparse list is maintained in
// addition to the dense bitmap. This mirrors the dense/sparse switching used
// by Ligra-style frameworks that inspired the paper's hybrid strategy.
const sparseThresholdDenom = 16

// Frontier is an adaptive set of active vertices.
//
// It always maintains a dense bitmap (so membership tests used by the pull
// model are O(1)), and additionally maintains a sparse slice of members
// while the set is small (so the push model can enumerate active vertices
// without scanning the bitmap). Once the set grows past Len()/16 the sparse
// list is dropped and enumeration falls back to a bitmap scan. The list is
// appended to in arrival order and put in ascending order at most once
// between writes: by the first ordered read (Members, Range, RangeIn,
// CountIn, Clone) that follows an out-of-order add.
//
// Concurrency: AddAtomic is the only writer that may run concurrently, and
// only with other AddAtomic calls (MergeAtomic, which touches the bitmap
// alone, may join them). Add, Reindex and every other writer need exclusive
// access. Readers may run concurrently with each other — the ordering step
// is serialized internally — but never with a writer. A Range or RangeIn
// callback walks the frontier's own list and must not add to the frontier
// it is ranging; Members returns a private copy that the caller may keep
// across later writes.
type Frontier struct {
	dense *Bitset
	// mu guards count, sparse, sparseOK and unsorted between concurrent
	// AddAtomic calls, and serializes the in-place ordering among readers.
	mu     sync.Mutex
	sparse []int
	// sparseOK records whether the sparse list still mirrors the dense set.
	sparseOK bool
	// unsorted records that a member was appended below its predecessor
	// since the list was last in ascending order.
	unsorted bool
	count    int64
}

// NewFrontier returns an empty frontier over vertex IDs [0, n).
func NewFrontier(n int) *Frontier {
	return &Frontier{
		dense:    New(n),
		sparse:   make([]int, 0, 64),
		sparseOK: true,
	}
}

// FullFrontier returns a frontier with every vertex in [0, n) active.
func FullFrontier(n int) *Frontier {
	f := NewFrontier(n)
	f.dense.SetAll()
	f.sparseOK = false
	f.count = int64(n)
	return f
}

// Len returns the universe size (number of vertex IDs).
func (f *Frontier) Len() int { return f.dense.Len() }

// Count returns the number of active vertices.
func (f *Frontier) Count() int { return int(f.count) }

// Empty reports whether no vertex is active.
func (f *Frontier) Empty() bool { return f.count == 0 }

// IsDense reports whether the frontier has abandoned its sparse member list.
func (f *Frontier) IsDense() bool { return !f.sparseOK }

// Contains reports whether vertex v is active.
func (f *Frontier) Contains(v int) bool { return f.dense.Test(v) }

// Add activates vertex v. It returns true if v was newly activated.
// Not safe for concurrent use; see AddAtomic.
func (f *Frontier) Add(v int) bool {
	if f.dense.Test(v) {
		return false
	}
	f.dense.Set(v)
	f.count++
	f.noteAdd(v)
	return true
}

// AddAtomic activates vertex v and is safe for concurrent use with other
// AddAtomic calls. It returns true if v was newly activated.
func (f *Frontier) AddAtomic(v int) bool {
	if !f.dense.AtomicTestAndSet(v) {
		return false
	}
	f.mu.Lock()
	f.count++
	f.noteAdd(v)
	f.mu.Unlock()
	return true
}

func (f *Frontier) noteAdd(v int) {
	if !f.sparseOK {
		return
	}
	n := len(f.sparse)
	if n+1 > f.sparseCap() {
		f.sparse = f.sparse[:0]
		f.sparseOK = false
		return
	}
	if n > 0 && v < f.sparse[n-1] {
		f.unsorted = true
	}
	f.sparse = append(f.sparse, v)
}

func (f *Frontier) sparseCap() int {
	c := f.dense.Len() / sparseThresholdDenom
	if c < 64 {
		c = 64
	}
	return c
}

// ordered returns the sparse member list in ascending order, putting it in
// order first if a member arrived out of order since it was last ordered.
// Every ordered read of a sparse frontier goes through here, so concurrent
// readers either perform the one ordering or wait for it; the returned
// slice is the frontier's own and stays valid until the next write.
//
// The list holds exactly the bitmap's members (readers never overlap a
// writer), so it is ordered whichever way is cheaper for its size: sorted
// in place, or rewritten from one pass over the bitmap's words
// (rebuildFromBitmap). Both give the same list.
func (f *Frontier) ordered() []int {
	f.mu.Lock()
	if f.unsorted {
		if rebuildFromBitmap(len(f.sparse), len(f.dense.words)) {
			f.sparse = f.dense.appendMembers(f.sparse[:0])
		} else {
			slices.Sort(f.sparse)
		}
		f.unsorted = false
	}
	s := f.sparse
	f.mu.Unlock()
	return s
}

// rebuildFromBitmap reports whether m out-of-order members are put in order
// more cheaply by one pass over a bitmap of the given word count than by a
// comparison sort: m·log₂m > words. The choice depends on the sizes alone.
func rebuildFromBitmap(m, words int) bool {
	return m*bits.Len(uint(m)) > words
}

// Members returns the active vertices in ascending order. The returned slice
// is freshly allocated.
func (f *Frontier) Members() []int {
	if f.sparseOK {
		return append([]int(nil), f.ordered()...)
	}
	return f.dense.Members()
}

// Range calls fn for each active vertex in ascending order; stops when fn
// returns false. fn must not add to f.
func (f *Frontier) Range(fn func(v int) bool) {
	if f.sparseOK {
		for _, v := range f.ordered() {
			if !fn(v) {
				return
			}
		}
		return
	}
	f.dense.Range(fn)
}

// RangeIn calls fn for each active vertex in [lo, hi) in ascending order;
// stops when fn returns false. fn must not add to f.
func (f *Frontier) RangeIn(lo, hi int, fn func(v int) bool) {
	if f.sparseOK {
		s := f.ordered()
		for _, v := range s[sort.SearchInts(s, lo):] {
			if v >= hi || !fn(v) {
				return
			}
		}
		return
	}
	f.dense.RangeIn(lo, hi, fn)
}

// RangeMasked calls fn, in ascending order, for each active vertex v ≥ lo
// whose bit v−lo is set in mask (bit k in word k/64): the frontier ∧ mask.
// It costs the fewer of the members in the mask's span and the mask's
// words: while a sparse frontier has no more members there than the mask
// has words, each member's mask bit is tested; otherwise the bitmap is
// ANDed with the mask a word at a time. Stops when fn returns false; fn
// must not add to f.
func (f *Frontier) RangeMasked(lo int, mask []uint64, fn func(v int) bool) {
	if f.sparseOK {
		s := f.ordered()
		s = s[sort.SearchInts(s, lo):]
		if s = s[:sort.SearchInts(s, lo+len(mask)*wordBits)]; len(s) <= len(mask) {
			for _, v := range s {
				if k := v - lo; mask[k/wordBits]&(1<<(k%wordBits)) != 0 && !fn(v) {
					return
				}
			}
			return
		}
	}
	f.dense.RangeMasked(lo, mask, fn)
}

// MaskedExtent returns the first and last active vertex v ≥ lo whose bit
// v−lo is set in mask — the two ends of frontier ∧ mask — with ok false when
// there is none. It chooses its path as RangeMasked does and finds each end
// from its own side, so it stops at the first hit either way.
func (f *Frontier) MaskedExtent(lo int, mask []uint64) (first, last int, ok bool) {
	if f.sparseOK {
		s := f.ordered()
		s = s[sort.SearchInts(s, lo):]
		if s = s[:sort.SearchInts(s, lo+len(mask)*wordBits)]; len(s) <= len(mask) {
			in := func(v int) bool { k := v - lo; return mask[k/wordBits]&(1<<(k%wordBits)) != 0 }
			a := 0
			for a < len(s) && !in(s[a]) {
				a++
			}
			if a == len(s) {
				return 0, 0, false
			}
			z := len(s) - 1
			for !in(s[z]) {
				z--
			}
			return s[a], s[z], true
		}
	}
	return f.dense.maskedExtent(lo, mask)
}

// CountIn returns the number of active vertices in [lo, hi).
func (f *Frontier) CountIn(lo, hi int) int {
	if f.sparseOK {
		s := f.ordered()
		from := sort.SearchInts(s, lo)
		return sort.SearchInts(s[from:], hi)
	}
	return f.dense.CountRange(lo, hi)
}

// MergeAtomic ORs other's members into f's dense bitmap with per-word CAS,
// safe for concurrent use with AddAtomic on f (other must be quiescent — a
// shard's piece handed over at the barrier). Only the bitmap
// is merged: the count and sparse list are left stale, so the caller must
// Reindex once all pieces are in before using Count/Members/Range. Universe
// sizes must match.
func (f *Frontier) MergeAtomic(other *Frontier) {
	f.dense.OrAtomic(other.dense)
}

// Reindex rebuilds the count and sparse member list from the dense bitmap
// after one or more MergeAtomic calls. The rebuilt state is exactly what an
// organically-built frontier with the same members has: the sparse list is
// kept iff the member count fits the sparse capacity (an organic frontier
// drops it at the same threshold), and it is rebuilt in ascending order, so
// a merged frontier never sorts. Requires external synchronization (no
// concurrent writers).
func (f *Frontier) Reindex() {
	f.count = int64(f.dense.Count())
	f.sparse = f.sparse[:0]
	f.unsorted = false
	f.sparseOK = int(f.count) <= f.sparseCap()
	if f.sparseOK {
		f.sparse = f.dense.appendMembers(f.sparse)
	}
}

// Bitmap exposes the underlying dense bitmap for read-only membership tests.
// Mutating the returned bitset corrupts the frontier.
func (f *Frontier) Bitmap() *Bitset { return f.dense }

// Clone returns an independent copy of the frontier.
func (f *Frontier) Clone() *Frontier {
	c := &Frontier{
		dense:    f.dense.Clone(),
		sparseOK: f.sparseOK,
		count:    f.count,
	}
	if f.sparseOK {
		c.sparse = append([]int(nil), f.ordered()...)
	}
	return c
}
