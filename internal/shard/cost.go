package shard

import (
	"time"
)

// The exchange cost model — the §3.4-style communication term of a sharded
// run: what shipping an iteration's activations between K shards would cost
// if they did not share their arrays. It is charged at the iteration
// barrier, after every shard's wall, so its modeled time is added to the
// combined iteration Runtime. Two modes are priced each iteration and the
// cheaper one chosen:
//
//   - push: every shard ships its local activations (vertex id + value,
//     UpdateWireBytes each) to the K−1 other shards; K·(K−1) messages.
//   - pull: shards hand their pieces to the coordinator (already counted in
//     the merge), which broadcasts the merged state back: each shard
//     receives the merged activations it did not produce itself plus one
//     copy of the merged frontier (sparse id list or dense bitmap,
//     whichever is smaller); 2K messages.
//
// Bytes are priced at the wire rate plus a per-message setup term. Both
// are constants nothing has calibrated yet (ROADMAP item 2c).
const (
	// DefaultNsPerByte models a 10 GbE-class interconnect (~0.8 ns per
	// byte on the wire), the default for -shards runs.
	DefaultNsPerByte = 0.8
	// DefaultPerMsgNs is the per-message setup cost (syscall + protocol
	// framing), charged once per modeled message.
	DefaultPerMsgNs = 20000
	// UpdateWireBytes is one boundary value-update on the wire: a 4-byte
	// vertex id plus an 8-byte float64 value.
	UpdateWireBytes = 12
	// mergeNsPerByte prices the barrier's OR-merge of frontier pieces —
	// modeled per byte of dense bitmap, not measured, so replayed runs
	// stay deterministic.
	mergeNsPerByte = 0.2
)

// CostModel prices barrier exchanges.
type CostModel struct {
	nsPerByte float64
	perMsgNs  float64
}

// NewCostModel builds a model; zero parameters take the defaults.
func NewCostModel(nsPerByte, perMsgNs float64) *CostModel {
	if nsPerByte <= 0 {
		nsPerByte = DefaultNsPerByte
	}
	if perMsgNs <= 0 {
		perMsgNs = DefaultPerMsgNs
	}
	return &CostModel{nsPerByte: nsPerByte, perMsgNs: perMsgNs}
}

// Price returns the modeled time of moving bytes in msgs messages.
func (m *CostModel) Price(bytes, msgs int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	if msgs < 0 {
		msgs = 0
	}
	return time.Duration(float64(bytes)*m.nsPerByte + float64(msgs)*m.perMsgNs)
}

// PredictNext estimates the coming iteration's exchange time for the model
// arbiter, using the entering frontier's activity as a proxy for the
// activations the iteration will produce. Both modes are priced the way
// Choose prices them — bytes at the wire rate PLUS the modeled message
// count at the per-message setup cost — and the cheaper one is returned;
// without the message term, a sparse frontier's K·(K−1) push messages (or
// the pull broadcast's 2K) would predict as near zero even though setup
// dominates exactly there. The estimate is added to both the
// ROP and the COP candidate — the barrier exchange ships the same
// activations whichever update model produced them — so it documents the
// communication term without perturbing the ROP/COP choice away from the
// unsharded predictor's.
func (m *CostModel) PredictNext(activeEst, n, k int) time.Duration {
	if k <= 1 {
		return 0
	}
	push, pull := exchangeVolumes(uniformCounts(activeEst, k), activeEst, n, k)
	t := m.Price(push.Bytes, push.Msgs)
	if pt := m.Price(pull.Bytes, pull.Msgs); pt < t {
		t = pt
	}
	return t
}

// ExchangePlan is one priced exchange mode.
type ExchangePlan struct {
	Push  bool
	Bytes int64
	Msgs  int64
	Time  time.Duration
}

// Choose prices push against pull for the activations the iteration
// actually produced — pieceCounts per shard, mergedCount distinct after the
// OR-merge, over a universe of n vertices — and returns the cheaper plan.
func (m *CostModel) Choose(pieceCounts []int, mergedCount, n int) ExchangePlan {
	k := len(pieceCounts)
	push, pull := exchangeVolumes(pieceCounts, mergedCount, n, k)
	push.Time = m.Price(push.Bytes, push.Msgs)
	pull.Time = m.Price(pull.Bytes, pull.Msgs)
	best := push
	if pull.Time < push.Time {
		best = pull
	}
	return best
}

// exchangeVolumes computes the bytes-on-the-wire and message counts of both
// modes.
func exchangeVolumes(pieceCounts []int, mergedCount, n, k int) (push, pull ExchangePlan) {
	push.Push = true
	for _, c := range pieceCounts {
		push.Bytes += int64(c) * UpdateWireBytes * int64(k-1)
		rest := mergedCount - c
		if rest < 0 {
			rest = 0
		}
		pull.Bytes += int64(rest) * UpdateWireBytes
	}
	frontierWire := int64(mergedCount) * 4
	if dense := int64((n + 7) / 8); dense < frontierWire {
		frontierWire = dense
	}
	pull.Bytes += int64(k) * frontierWire
	push.Msgs = int64(k) * int64(k-1)
	pull.Msgs = 2 * int64(k)
	return push, pull
}

// uniformCounts spreads an activation estimate evenly over k shards — the
// arbiter's prior before the iteration has run.
func uniformCounts(total, k int) []int {
	counts := make([]int, k)
	for s := range counts {
		counts[s] = total / k
	}
	counts[0] += total % k
	return counts
}

// MergedFrontierCost prices the barrier's OR-merge of K pieces into the
// next frontier: K−1 OR passes priced per byte of the dense bitmap
// ((n+7)/8 bytes over n vertices).
func MergedFrontierCost(n, k int) time.Duration {
	if k <= 1 {
		return 0
	}
	bitmapBytes := int64((n + 7) / 8)
	return time.Duration(float64(k-1) * float64(bitmapBytes) * mergeNsPerByte)
}
