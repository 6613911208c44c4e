package shard

import (
	"testing"
	"time"
)

// TestPredictNextIncludesPerMessageTerm pins the prediction fix: a sparse
// frontier's exchange is dominated by message setup — K·(K−1) push
// messages or the pull broadcast's 2K — so the prediction must be at
// least the cheaper mode's message bill, not the near-zero byte cost the
// old bytes-only computation produced.
func TestPredictNextIncludesPerMessageTerm(t *testing.T) {
	m := NewCostModel(0, 0)
	k, n := 4, 1<<20
	got := m.PredictNext(1, n, k)

	// The cheaper mode cannot beat its own message floor: min(K·(K−1), 2K)
	// messages at the per-message cost.
	pushMsgs := int64(k) * int64(k-1)
	pullMsgs := 2 * int64(k)
	minMsgs := pushMsgs
	if pullMsgs < minMsgs {
		minMsgs = pullMsgs
	}
	floor := time.Duration(float64(minMsgs) * DefaultPerMsgNs)
	if got < floor {
		t.Fatalf("sparse prediction %v below the per-message floor %v", got, floor)
	}

	// And it must price exactly like Choose does for the same modeled
	// volumes.
	push, pull := exchangeVolumes(uniformCounts(1, k), 1, n, k)
	want := m.Price(push.Bytes, push.Msgs)
	if pt := m.Price(pull.Bytes, pull.Msgs); pt < want {
		want = pt
	}
	if got != want {
		t.Fatalf("prediction %v != Price of the cheaper modeled plan %v", got, want)
	}
}

// TestPredictNextZeroAtK1 pins the unsharded shortcut.
func TestPredictNextZeroAtK1(t *testing.T) {
	m := NewCostModel(0, 0)
	if got := m.PredictNext(100, 1000, 1); got != 0 {
		t.Fatalf("K=1 prediction = %v, want 0", got)
	}
}
