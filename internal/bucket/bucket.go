// Package bucket implements a Julienne-style bucketed frontier: an array
// of priority buckets layered over bitset.Frontier, drained strictly in
// priority order (increasing or decreasing). Programs that declare a
// per-vertex priority (delta-stepping SSSP's distance bucket, coreness
// peeling's degree bucket) are driven bucket-by-bucket by the engine
// instead of iterate-to-fixpoint over one flat frontier.
//
// The structure keeps a sliding window of numBuckets frontiers starting at
// the priority of the bucket being drained; vertices whose priority falls
// beyond the window land in a single overflow bucket that is redistributed
// when the window is exhausted. Deletion is lazy: bitset.Frontier has no
// Remove, so a vertex may sit in several bucket frontiers after repeated
// priority updates — the per-vertex priority array is authoritative, and a
// membership bit is honored only if the vertex's current priority still
// maps to that bucket when the bucket is popped.
package bucket

import (
	"math"

	"husgraph/internal/bitset"
)

// Order is the direction buckets are drained in.
type Order int

const (
	// Increasing drains the smallest priority first (SSSP distances).
	Increasing Order = iota
	// Decreasing drains the largest priority first.
	Decreasing
)

// noPri marks a vertex that is in no bucket.
const noPri = math.MinInt64

// DefaultNumBuckets is the window width used when MakeBuckets is given a
// non-positive bucket count — wide enough that delta-stepping on the sim
// graphs almost never touches the overflow path, small enough to scan.
const DefaultNumBuckets = 64

// Buckets is a bucketed frontier over vertex IDs [0, n). Not safe for
// concurrent use: the engine (or the shard coordinator) owns it and calls
// it only between iterations, at the barrier.
type Buckets struct {
	n     int
	nb    int
	order Order

	// pri[v] is the authoritative current priority of v, or noPri when v
	// is parked in no bucket. Bucket membership bits are hints validated
	// against pri at pop time (lazy deletion).
	pri []int64

	// window[i] holds vertices whose key (order-normalized priority) is
	// base+i; slots are allocated lazily and dropped once drained.
	window []*bitset.Frontier
	// overflow holds vertices whose key falls outside the window.
	overflow *bitset.Frontier

	base int64 // key of window[0]
	cur  int   // window slot of the bucket most recently popped
	// opened flips on the first NextBucket: until then every insert goes
	// to overflow so the first refill can anchor the window at the true
	// minimum key instead of at whatever vertex arrived first.
	opened bool

	live int // number of vertices with pri != noPri
}

// MakeBuckets returns an empty bucket structure over [0, n) drained in the
// given order with a window of numBuckets buckets (DefaultNumBuckets when
// numBuckets <= 0).
func MakeBuckets(n int, order Order, numBuckets int) *Buckets {
	if numBuckets <= 0 {
		numBuckets = DefaultNumBuckets
	}
	return &Buckets{
		n:        n,
		nb:       numBuckets,
		order:    order,
		pri:      newPri(n),
		window:   make([]*bitset.Frontier, numBuckets),
		overflow: bitset.NewFrontier(n),
	}
}

func newPri(n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = noPri
	}
	return p
}

// key normalizes a priority so the window is always drained in ascending
// key order regardless of the declared Order.
func (b *Buckets) key(p int64) int64 {
	if b.order == Decreasing {
		return -p
	}
	return p
}

// Len returns the universe size.
func (b *Buckets) Len() int { return b.n }

// Pending returns the number of vertices currently parked in some bucket —
// work the structure still holds beyond the frontier last popped.
func (b *Buckets) Pending() int { return b.live }

// UpdateBucket sets v's priority to p, moving it to the matching bucket.
// Updates that map before the bucket currently being drained are clamped
// into the current bucket: priority programs guarantee monotone progress
// (delta-stepping's non-negative weights, peeling's max(deg−removed, k)
// floor), so a clamped entry is semantically "process now", never "process
// in the past".
func (b *Buckets) UpdateBucket(v int, p int64) {
	b.ensure(v)
	if b.pri[v] == noPri {
		b.live++
	}
	b.pri[v] = p
	if !b.opened {
		b.overflow.Add(v)
		return
	}
	off := b.offset(b.key(p))
	if off >= b.nb {
		b.overflow.Add(v)
		return
	}
	if b.window[off] == nil {
		b.window[off] = bitset.NewFrontier(b.n)
	}
	b.window[off].Add(v)
}

// Remove takes v out of whatever bucket it is parked in (lazily — the
// membership bits stay, but pop-time validation will skip it).
func (b *Buckets) Remove(v int) {
	if v < 0 || v >= b.n || b.pri[v] == noPri {
		return
	}
	b.pri[v] = noPri
	b.live--
}

// Priority returns v's current priority and whether v is parked in a
// bucket.
func (b *Buckets) Priority(v int) (int64, bool) {
	if v < 0 || v >= b.n || b.pri[v] == noPri {
		return 0, false
	}
	return b.pri[v], true
}

// offset maps a key to its window slot relative to base, clamping keys at
// or before the current bucket into the current bucket (see UpdateBucket).
func (b *Buckets) offset(k int64) int {
	off64 := k - b.base
	if off64 >= int64(b.nb) {
		return b.nb // caller treats >= nb as overflow
	}
	off := int(off64)
	if off < b.cur {
		off = b.cur
	}
	return off
}

// NextBucket pops the non-empty bucket with the smallest key: it returns a
// freshly built frontier of that bucket's live members (ascending vertex
// order — deterministic), the bucket's priority, and true. The returned
// members are drained from the structure (pri reset to noPri); reinserting
// a popped vertex requires a new UpdateBucket call. Returns (nil, 0, false)
// when no live vertex remains.
func (b *Buckets) NextBucket() (*bitset.Frontier, int64, bool) {
	for {
		if b.opened {
			for s := b.cur; s < b.nb; s++ {
				f := b.window[s]
				b.window[s] = nil
				if f == nil || f.Empty() {
					continue
				}
				b.cur = s
				want := b.base + int64(s)
				out := b.collect(f, want)
				if out != nil {
					return out, b.fromKey(want), true
				}
			}
		}
		if !b.refill() {
			return nil, 0, false
		}
	}
}

// collect builds the clean frontier of f's live members whose current key
// still maps to slot key want, draining each collected vertex. Returns nil
// if every member was stale.
func (b *Buckets) collect(f *bitset.Frontier, want int64) *bitset.Frontier {
	var out *bitset.Frontier
	f.Range(func(v int) bool {
		p := b.pri[v]
		if p == noPri {
			return true // lazily deleted
		}
		k := b.key(p)
		if koff := k - b.base; koff < int64(b.cur) {
			k = b.base + int64(b.cur) // clamped into the current bucket
		}
		if k != want {
			return true // moved to a later bucket; its live bit is there
		}
		if out == nil {
			out = bitset.NewFrontier(b.n)
		}
		out.Add(v)
		b.pri[v] = noPri
		b.live--
		return true
	})
	return out
}

// refill slides the window: every live vertex still parked anywhere
// (overflow or a stale window bit already cleared — only overflow can hold
// live vertices here) is redistributed into a fresh window anchored at the
// minimum live key. Returns false when nothing live remains.
func (b *Buckets) refill() bool {
	if b.live == 0 {
		return false
	}
	minK := int64(math.MaxInt64)
	var members []int
	b.overflow.Range(func(v int) bool {
		p := b.pri[v]
		if p == noPri {
			return true
		}
		members = append(members, v)
		if k := b.key(p); k < minK {
			minK = k
		}
		return true
	})
	if len(members) == 0 {
		// live > 0 but nothing parked in overflow: internal invariant
		// violated (a live vertex must be findable). Fail closed.
		return false
	}
	b.base = minK
	b.cur = 0
	b.opened = true
	b.overflow = bitset.NewFrontier(b.n)
	for i := range b.window {
		b.window[i] = nil
	}
	for _, v := range members {
		off64 := b.key(b.pri[v]) - b.base
		if off64 >= int64(b.nb) {
			b.overflow.Add(v)
			continue
		}
		off := int(off64)
		if b.window[off] == nil {
			b.window[off] = bitset.NewFrontier(b.n)
		}
		b.window[off].Add(v)
	}
	return true
}

// fromKey maps a normalized key back to the caller's priority space.
func (b *Buckets) fromKey(k int64) int64 {
	if b.order == Decreasing {
		return -k
	}
	return k
}

// ensure panics on out-of-range vertex IDs with a clear message rather
// than an index fault deep in the bitset.
func (b *Buckets) ensure(v int) {
	if v < 0 || v >= b.n {
		panic("bucket: vertex id out of range")
	}
}
