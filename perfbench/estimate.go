package main

import (
	"math"
	"sort"
)

// bestPerIndex returns min_r walls[r][k] for every iteration index k. All
// repetitions must have the same length; a ragged or empty input returns
// nil.
func bestPerIndex(walls [][]float64) []float64 {
	if len(walls) == 0 {
		return nil
	}
	best := append([]float64(nil), walls[0]...)
	for _, rep := range walls[1:] {
		if len(rep) != len(best) {
			return nil
		}
		for k, w := range rep {
			if w < best[k] {
				best[k] = w
			}
		}
	}
	return best
}

// bestComposite returns Σ_k min_r walls[r][k]: every iteration index takes
// its best time over the repetitions. On this sandbox the noise is additive
// (memory-subsystem contention from neighbours arriving in phases of
// seconds), so the per-index minimum converges on the undisturbed time far
// faster than any statistic of whole-repetition walls. NaN when
// bestPerIndex has no answer.
func bestComposite(walls [][]float64) float64 {
	best := bestPerIndex(walls)
	if best == nil {
		return math.NaN()
	}
	var sum float64
	for _, w := range best {
		sum += w
	}
	return sum
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrSpread is the distance between the first and third quartile as a share
// of the median — the spread the benchmark's bounds are judged against. The
// quartiles are Python's statistics.quantiles(xs, n=4), which places them at
// position p·(n+1) of the sorted sample rather than quantile's p·(n−1)+1 and
// so reads wider on ten values.
func iqrSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1 // 0-based
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > len(s)-2 {
			lo = len(s) - 2
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	if len(s) < 2 {
		return math.NaN()
	}
	return (at(0.75) - at(0.25)) / median(s)
}

// span is one traced call into a layer. Parent is an index into the span
// slice (-1 for a root); Rep groups the spans of one repetition.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval its direct children cover. Children may
// overlap one another (two engine threads reading at once), so the covered
// part is the length of the union of their intervals, clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
