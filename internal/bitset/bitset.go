// Package bitset provides the dense bitmap the HUS-Graph engine tracks
// active vertices with.
//
// The engine switches between a push model (ROP), which enumerates a usually
// small set of active vertices, and a pull model (COP), which tests
// membership for every in-neighbor it scans. Frontier serves both from one
// bitmap and a member count: COP tests a bit, ROP walks the bitmap's words
// ANDed with a block's source mask. AddAtomic runs concurrently with other
// AddAtomic and MergeAtomic calls; readers may run concurrently with each
// other, but never with a writer.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-capacity dense bitmap over vertex IDs [0, n).
//
// The zero value is an empty bitset of capacity zero; use New to create one
// with capacity. Plain methods are not safe for concurrent writers; the
// Set/TestAndSet variants prefixed with "Atomic" may be used concurrently
// with each other.
type Bitset struct {
	n     int
	words []uint64
}

// New returns an empty bitset with capacity for n bits.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the bitset capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Words exposes the backing words for read-only scans that cannot afford a
// call per test: bit i is Words()[i/64]>>(i%64)&1. Mutating the returned
// slice corrupts the bitset.
func (b *Bitset) Words() []uint64 { return b.words }

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// AtomicTestAndSet sets bit i and reports whether this call changed it from
// 0 to 1. Safe for concurrent use with other Atomic methods.
func (b *Bitset) AtomicTestAndSet(i int) bool {
	b.check(i)
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitset: bad range [%d,%d) for capacity %d", lo, hi, b.n))
	}
	if lo == hi {
		return 0
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	head := b.words[first] &^ (1<<(uint(lo)%wordBits) - 1)            // bits ≥ lo
	tail := ^uint64(0) >> ((wordBits - uint(hi)%wordBits) % wordBits) // bits < hi
	if first == last {
		return bits.OnesCount64(head & tail)
	}
	c := bits.OnesCount64(head) + bits.OnesCount64(b.words[last]&tail)
	for _, w := range b.words[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len()).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Clear the trailing bits beyond n in the last word.
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy of the bitset.
func (b *Bitset) Clone() *Bitset {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// OrAtomic sets b to the union b ∪ other with per-word CAS loops, safe for
// concurrent use with the Atomic methods on b (other must not be written
// concurrently). Words already covering other's bits are skipped without a
// write, so K disjoint-interval merges mostly CAS distinct words. Like all
// racing reads, bits being set in b concurrently are preserved; bits set in
// other before the call are always merged. Capacities must match.
func (b *Bitset) OrAtomic(other *Bitset) {
	if b.n != other.n {
		panic("bitset: OrAtomic capacity mismatch")
	}
	for i, ow := range other.words {
		if ow == 0 {
			continue
		}
		w := &b.words[i]
		for {
			old := atomic.LoadUint64(w)
			merged := old | ow
			if merged == old {
				break
			}
			if atomic.CompareAndSwapUint64(w, old, merged) {
				break
			}
		}
	}
}

// Equal reports whether b and other contain exactly the same bits.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i / wordBits
	word := b.words[w] >> (uint(i) % wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// Range calls fn for every set bit in ascending order. If fn returns false
// the iteration stops.
func (b *Bitset) Range(fn func(i int) bool) {
	for w, word := range b.words {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if !fn(w*wordBits + t) {
				return
			}
			word &^= 1 << uint(t)
		}
	}
}

// RangeIn calls fn for every set bit in [lo, hi) in ascending order.
func (b *Bitset) RangeIn(lo, hi int, fn func(i int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	for i := b.NextSet(lo); i >= 0 && i < hi; i = b.NextSet(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// sumIn returns the sum of w[i] over the set bits i in [lo, hi): a word at a
// time, skipping zero words, with no call per bit. w must cover [lo, hi).
func (b *Bitset) sumIn(lo, hi int, w []int32) int64 {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitset: bad range [%d,%d) for capacity %d", lo, hi, b.n))
	}
	if lo == hi {
		return 0
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	head := b.words[first] &^ (1<<(uint(lo)%wordBits) - 1)            // bits ≥ lo
	tail := ^uint64(0) >> ((wordBits - uint(hi)%wordBits) % wordBits) // bits < hi
	if first == last {
		return sumBits(head&tail, w[first*wordBits:])
	}
	t := sumBits(head, w[first*wordBits:]) + sumBits(b.words[last]&tail, w[last*wordBits:])
	// The words between are skipped in a loop of their own while zero. A
	// set one has all 64 of its weights in w, so its walk indexes an array,
	// with no bounds check per bit, and takes the bits alternately into two
	// sums, so that one bit's scan does not wait on the load of the bit
	// before it.
	var t1 int64
	words := b.words[:last]
	for k := first + 1; ; k++ {
		for k < last && words[k] == 0 {
			k++
		}
		if k == last {
			break
		}
		word := words[k]
		ws := (*[wordBits]int32)(w[k*wordBits:])
		for word != 0 {
			t += int64(ws[bits.TrailingZeros64(word)&(wordBits-1)])
			if word &= word - 1; word == 0 {
				break
			}
			t1 += int64(ws[bits.TrailingZeros64(word)&(wordBits-1)])
			word &= word - 1
		}
	}
	return t + t1
}

// sumBits returns the sum of w[k] over the set bits k of word.
func sumBits(word uint64, w []int32) (t int64) {
	for ; word != 0; word &= word - 1 {
		t += int64(w[bits.TrailingZeros64(word)])
	}
	return t
}

// at returns the 64 bits of b from bit pos on — bit k of the result is bit
// pos+k of b — reading bits past the end as zero.
func (b *Bitset) at(pos int) uint64 {
	w, s := pos/wordBits, uint(pos%wordBits)
	if w >= len(b.words) {
		return 0
	}
	x := b.words[w] >> s
	if s != 0 && w+1 < len(b.words) {
		x |= b.words[w+1] << (wordBits - s)
	}
	return x
}

// RangeMasked calls fn, in ascending order, for every set bit i ≥ lo of b
// whose bit i−lo is set in mask — a bitmap of the bits from lo on, bit k in
// word k/64 — one word of each at a time. If fn returns false the iteration
// stops.
func (b *Bitset) RangeMasked(lo int, mask []uint64, fn func(i int) bool) {
	for k, m := range mask {
		base := lo + k*wordBits
		for w := m & b.at(base); w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// maskedExtent returns the first and last set bit i ≥ lo of b whose bit i−lo
// is set in mask, each found by walking the words from its own end; ok is
// false when there is none.
func (b *Bitset) maskedExtent(lo int, mask []uint64) (first, last int, ok bool) {
	k := 0
	for ; k < len(mask); k++ {
		if w := mask[k] & b.at(lo+k*wordBits); w != 0 {
			first = lo + k*wordBits + bits.TrailingZeros64(w)
			break
		}
	}
	if k == len(mask) {
		return 0, 0, false
	}
	for h := len(mask) - 1; ; h-- {
		if w := mask[h] & b.at(lo+h*wordBits); w != 0 {
			return first, lo + h*wordBits + wordBits - 1 - bits.LeadingZeros64(w), true
		}
	}
}

// Members returns the set bits in ascending order: one pass over the words,
// no call per bit.
func (b *Bitset) Members() []int {
	s := make([]int, 0, b.Count())
	for w, word := range b.words {
		for ; word != 0; word &= word - 1 {
			s = append(s, w*wordBits+bits.TrailingZeros64(word))
		}
	}
	return s
}

// String renders the set in {1, 5, 9} form; useful in tests and debugging.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.Range(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
