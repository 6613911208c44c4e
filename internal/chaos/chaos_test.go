package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/storage"
)

// runBounded executes one chaos scenario with a wall-clock watchdog: a
// hung run (a stalled read the deadline failed to time out) fails the test
// instead of hanging the suite.
func runBounded(t *testing.T, a Algo, tune Tuning, sched Schedule, limit time.Duration) *Report {
	t.Helper()
	type outcome struct {
		rep *Report
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, err := Execute(a, tune, sched)
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("%s/%s: %v", a.Name, sched.Name, o.err)
		}
		return o.rep
	case <-time.After(limit):
		t.Fatalf("%s/%s: wall-clock bound %v exceeded — a read hung past its deadline", a.Name, sched.Name, limit)
		return nil
	}
}

// TestChaosMatrixSeeded is the CI smoke: three seeded schedules per
// algorithm (each paired with a different update model), every run
// verified for bit-identity, bounded wall-clock and exact recovery
// accounting. TestMain checks the whole package for goroutine leaks.
func TestChaosMatrixSeeded(t *testing.T) {
	models := []core.Model{core.ModelHybrid, core.ModelROP, core.ModelCOP}
	for _, a := range Matrix() {
		for i, seed := range []int64{1, 2, 3} {
			a, model, seed := a, models[i%len(models)], seed
			t.Run(fmt.Sprintf("%s/seed-%d", a.Name, seed), func(t *testing.T) {
				sched := RandomSchedule(seed)
				rep := runBounded(t, a, Tuning{Model: model}, sched, 60*time.Second)
				if err := Verify(rep); err != nil {
					t.Fatal(err)
				}
				if rep.Counters.Injected() == 0 {
					t.Fatalf("schedule %s injected nothing — the run was never under chaos", sched.Name)
				}
			})
		}
	}
}

// TestChaosHungReadsCompleteViaHedging pins the liveness claim: a schedule
// whose only faults are reads hung forever completes — within the
// wall-clock bound — because every hung attempt times out at the read
// deadline and is retried, and each retry is accounted. The fault-free run
// makes 83 reads (an in-block is one read: the raw store's in-blocks carry
// no in-index), so all three stalls land.
func TestChaosHungReadsCompleteViaHedging(t *testing.T) {
	sched := Schedule{
		Name: "stalls-only",
		Seed: 11,
		Faults: []storage.Fault{
			{Op: storage.OpRead, Kind: storage.FaultStall, After: 5, Count: 1},
			{Op: storage.OpRead, Kind: storage.FaultStall, After: 30, Count: 1},
			{Op: storage.OpRead, Kind: storage.FaultStall, After: 60, Count: 1},
		},
	}
	a, err := AlgoByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	rep := runBounded(t, a, Tuning{Model: core.ModelCOP}, sched, 60*time.Second)
	if err := Verify(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Stalls != 3 {
		t.Fatalf("injected %d stalls, want 3", rep.Counters.Stalls)
	}
	if rep.Chaotic.Recovery.Retries < 3 {
		t.Fatalf("Recovery.Retries = %d, want >= 3 (one per hung read)", rep.Chaotic.Recovery.Retries)
	}
}

// TestChaosKillAndResume pins the crash path: a schedule that kills the
// run mid-flight must resume from its checkpoint on a cold reopen and
// still produce bit-identical values.
func TestChaosKillAndResume(t *testing.T) {
	sched := RandomSchedule(4)
	sched.KillAtIter = 2 // force the kill regardless of the seed's coin flip
	a, err := AlgoByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	rep := runBounded(t, a, Tuning{Model: core.ModelCOP}, sched, 60*time.Second)
	if err := Verify(rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Killed {
		t.Fatal("schedule did not kill the run")
	}
	if !rep.Resumed || rep.Chaotic.Recovery.ResumedIter <= 0 {
		t.Fatalf("killed run did not resume from a checkpoint (ResumedIter=%d)", rep.Chaotic.Recovery.ResumedIter)
	}
}

// TestChaosCompressedStore runs the full matrix over mixed-format
// (compressed) chaotic stores against uncompressed clean oracles: decode
// must compose with retries, timeouts and kill-and-resume without perturbing
// a single bit of the result.
func TestChaosCompressedStore(t *testing.T) {
	models := []core.Model{core.ModelHybrid, core.ModelROP, core.ModelCOP}
	for i, a := range Matrix() {
		a, model := a, models[i%len(models)]
		t.Run(a.Name, func(t *testing.T) {
			sched := RandomSchedule(31 + int64(i))
			rep := runBounded(t, a, Tuning{Model: model, Format: blockstore.FormatMixed}, sched, 60*time.Second)
			if err := Verify(rep); err != nil {
				t.Fatal(err)
			}
			if rep.Counters.Injected() == 0 {
				t.Fatalf("schedule %s injected nothing", sched.Name)
			}
		})
	}
}

// TestChaosCompressedKillAndResume forces the crash path over a compressed
// store: the resumed engine reopens the mixed-format blobs cold, decodes
// them again, and still lands on the oracle's exact values.
func TestChaosCompressedKillAndResume(t *testing.T) {
	sched := RandomSchedule(7)
	sched.KillAtIter = 2
	a, err := AlgoByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	rep := runBounded(t, a, Tuning{Model: core.ModelCOP, Format: blockstore.FormatMixed}, sched, 60*time.Second)
	if err := Verify(rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Killed {
		t.Fatal("schedule did not kill the run")
	}
	if !rep.Resumed || rep.Chaotic.Recovery.ResumedIter <= 0 {
		t.Fatalf("killed compressed run did not resume (ResumedIter=%d)", rep.Chaotic.Recovery.ResumedIter)
	}
	if rep.Chaotic.TotalDecodedBytes() <= 0 {
		t.Fatal("compressed chaos run metered no decode work")
	}
}

// TestChaosShardedMatrix runs the whole algorithm matrix through the K=2
// shard coordinator under seeded fault schedules, verified against the
// unsharded clean oracle — bit-identity across the sharding seam with
// retries and timeouts landing inside individual shards' windows.
func TestChaosShardedMatrix(t *testing.T) {
	models := []core.Model{core.ModelHybrid, core.ModelROP, core.ModelCOP}
	for i, a := range Matrix() {
		a, model := a, models[i%len(models)]
		t.Run(a.Name, func(t *testing.T) {
			sched := RandomSchedule(41 + int64(i))
			sched.KillAtIter = 0 // the kill path gets its own dedicated test
			rep := runBounded(t, a, Tuning{Model: model, Shards: 2}, sched, 60*time.Second)
			if err := Verify(rep); err != nil {
				t.Fatal(err)
			}
			if rep.Counters.Injected() == 0 {
				t.Fatalf("schedule %s injected nothing", sched.Name)
			}
		})
	}
}

// TestChaosShardedKillAndResume is the K=2 crash smoke: the run is killed
// at the iteration barrier, the store reopens cold, and the resumed
// coordinator must land on the oracle's exact values from its checkpoint.
func TestChaosShardedKillAndResume(t *testing.T) {
	sched := RandomSchedule(4)
	sched.KillAtIter = 2
	a, err := AlgoByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	rep := runBounded(t, a, Tuning{Model: core.ModelCOP, Shards: 2}, sched, 60*time.Second)
	if err := Verify(rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Killed {
		t.Fatal("schedule did not kill the run")
	}
	if !rep.Resumed || rep.Chaotic.Recovery.ResumedIter <= 0 {
		t.Fatalf("killed sharded run did not resume from a checkpoint (ResumedIter=%d)", rep.Chaotic.Recovery.ResumedIter)
	}
}

// TestChaosSoak is the long-haul entrypoint: CHAOS_SOAK=N go test -run
// TestChaosSoak ./internal/chaos sweeps N random seeds per algorithm.
// Skipped unless CHAOS_SOAK is set.
func TestChaosSoak(t *testing.T) {
	nStr := os.Getenv("CHAOS_SOAK")
	if nStr == "" {
		t.Skip("set CHAOS_SOAK=<seeds> to run the soak")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		t.Fatalf("CHAOS_SOAK=%q is not a positive integer", nStr)
	}
	models := []core.Model{core.ModelHybrid, core.ModelROP, core.ModelCOP}
	for _, a := range Matrix() {
		for seed := int64(1); seed <= int64(n); seed++ {
			a, seed := a, seed
			t.Run(fmt.Sprintf("%s/seed-%d", a.Name, seed), func(t *testing.T) {
				sched := RandomSchedule(seed)
				rep := runBounded(t, a, Tuning{Model: models[seed%3]}, sched, 120*time.Second)
				if err := Verify(rep); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
