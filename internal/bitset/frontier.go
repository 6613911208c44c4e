package bitset

import (
	"math/bits"
	"sync/atomic"
)

// Frontier is a set of active vertices: a dense bitmap and its member count,
// one representation whatever the density. COP tests membership in O(1);
// ROP and the planners enumerate members in ascending order by scanning the
// bitmap's words, a range or a source mask at a time, so sparse vs dense is a
// choice of traversal, not of representation.
//
// Concurrency: AddAtomic may run concurrently with other AddAtomic calls and
// with MergeAtomic, and AddWord with adds to other words; Add, Reindex and
// every other writer need exclusive access. Readers may run concurrently with each other, but never with a
// writer. A Range, RangeIn or RangeMasked callback must not add to the
// frontier it is ranging; Members returns a private copy that the caller may
// keep across later writes.
type Frontier struct {
	dense *Bitset
	// count is the number of set bits: an atomic increment under AddAtomic
	// and AddWord, recounted by Reindex, and a plain one under Add. COP's
	// column pass adds a word at a time from one worker per chunk of words.
	count int64
}

// NewFrontier returns an empty frontier over vertex IDs [0, n).
func NewFrontier(n int) *Frontier { return &Frontier{dense: New(n)} }

// FullFrontier returns a frontier with every vertex in [0, n) active.
func FullFrontier(n int) *Frontier {
	f := NewFrontier(n)
	f.dense.SetAll()
	f.count = int64(n)
	return f
}

// Len returns the universe size (number of vertex IDs).
func (f *Frontier) Len() int { return f.dense.Len() }

// Count returns the number of active vertices.
func (f *Frontier) Count() int { return int(f.count) }

// Empty reports whether no vertex is active.
func (f *Frontier) Empty() bool { return f.count == 0 }

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
	return true
}

// AddAtomic activates vertex v and is safe for concurrent use with other
// AddAtomic calls and with MergeAtomic. It returns true if v was newly
// activated.
func (f *Frontier) AddAtomic(v int) bool {
	if !f.dense.AtomicTestAndSet(v) {
		return false
	}
	atomic.AddInt64(&f.count, 1)
	return true
}

// AddWord activates the vertices of bitmap word w — vertex 64w+b for every
// set bit b of word, each below Len. The word is written plainly and the
// count atomically, so goroutines that each own whole words may add at once,
// and beside AddAtomic calls on other words.
func (f *Frontier) AddWord(w int, word uint64) {
	if added := word &^ f.dense.words[w]; added != 0 {
		f.dense.words[w] |= added
		atomic.AddInt64(&f.count, int64(bits.OnesCount64(added)))
	}
}

// Members returns the active vertices in ascending order. The returned slice
// is freshly allocated.
func (f *Frontier) Members() []int { return f.dense.Members() }

// Range calls fn for each active vertex in ascending order; stops when fn
// returns false. fn must not add to f.
func (f *Frontier) Range(fn func(v int) bool) { f.dense.Range(fn) }

// RangeIn calls fn for each active vertex in [lo, hi) in ascending order;
// stops when fn returns false. fn must not add to f.
func (f *Frontier) RangeIn(lo, hi int, fn func(v int) bool) { f.dense.RangeIn(lo, hi, fn) }

// RangeMasked calls fn, in ascending order, for each active vertex v ≥ lo
// whose bit v−lo is set in mask (bit k in word k/64): the frontier ∧ mask,
// ANDed a word at a time. Stops when fn returns false; fn must not add to f.
func (f *Frontier) RangeMasked(lo int, mask []uint64, fn func(v int) bool) {
	f.dense.RangeMasked(lo, mask, fn)
}

// MaskedExtent returns the first and last active vertex v ≥ lo whose bit
// v−lo is set in mask — the two ends of frontier ∧ mask — with ok false when
// there is none. Each end is found from its own side, so each walk stops at
// its first hit.
func (f *Frontier) MaskedExtent(lo int, mask []uint64) (first, last int, ok bool) {
	return f.dense.maskedExtent(lo, mask)
}

// SumIn returns the sum of w[v] over the active vertices v in [lo, hi) —
// the frontier's total out-degree when w holds the out-degrees. It walks the
// bitmap a word at a time and calls nothing per member, so it is no slower
// than Range with an inlined summing callback, and far faster than RangeIn
// with one, which steps member to member through NextSet.
func (f *Frontier) SumIn(lo, hi int, w []int32) int64 { return f.dense.sumIn(lo, hi, w) }

// CountIn returns the number of active vertices in [lo, hi).
func (f *Frontier) CountIn(lo, hi int) int { return f.dense.CountRange(lo, hi) }

// MergeAtomic ORs other's members into f's bitmap with per-word CAS, safe
// for concurrent use with AddAtomic on f (other must be quiescent — a
// shard's piece handed over at the barrier). The count is left stale, so the
// caller must Reindex once all pieces are in before using Count or Empty.
// Universe sizes must match.
func (f *Frontier) MergeAtomic(other *Frontier) { f.dense.OrAtomic(other.dense) }

// Reindex recounts the members from the bitmap after one or more MergeAtomic
// calls. Requires external synchronization (no concurrent writers).
func (f *Frontier) Reindex() { f.count = int64(f.dense.Count()) }

// Bitmap exposes the underlying dense bitmap for read-only membership tests.
// Mutating the returned bitset corrupts the frontier.
func (f *Frontier) Bitmap() *Bitset { return f.dense }

// Clone returns an independent copy of the frontier.
func (f *Frontier) Clone() *Frontier { return &Frontier{dense: f.dense.Clone(), count: f.count} }
