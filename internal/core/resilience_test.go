package core

import (
	"sync/atomic"
	"testing"
	"time"

	"husgraph/internal/resilience"
	"husgraph/internal/storage"
)

// TestDegradeLadderStepsDownAndReArms drives the engine through a latency
// storm (every read delayed past the deadline) and asserts the adaptive
// ladder sheds optimism one rung at a time, then re-arms once the storm
// passes — with results bit-identical to an undegraded run.
func TestDegradeLadderStepsDownAndReArms(t *testing.T) {
	g := pathGraph(60)
	clean, err := New(buildStore(t, g, 4, storage.HDD), Config{Model: ModelCOP, Threads: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}

	ds, fs := faultyStore(t, 60, 4, 1)
	// Every read sleeps 1.5ms — past the 1ms deadline — for the first 250
	// operations, spanning the run's first ~8 iterations.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, Count: 250, Delay: 1500 * time.Microsecond})

	// Manual breaker clock, advanced 5ms (one cooldown) per iteration
	// boundary: pressure persists across iterations inside the 10ms
	// window, the descent can compound one rung per iteration, and the
	// re-arm climbs one rung per clear window (two iterations).
	var nanos atomic.Int64
	nanos.Store(int64(time.Hour))
	cfg := Config{
		Model:         ModelCOP,
		Threads:       2,
		PrefetchDepth: 2,
		ReadDeadline:  time.Millisecond,
		NoHedge:       true, // pure ladder test: latency pressure without hedges
		Degrade:       true,
		DegradeWindow: 10 * time.Millisecond,
		OnIteration:   func(IterStats) { nanos.Add(int64(5 * time.Millisecond)) },
		degradeNow:    func() time.Time { return time.Unix(0, nanos.Load()) },
	}
	res, err := New(ds, cfg).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}

	// Degradation must never change what is computed.
	if len(res.Values) != len(clean.Values) {
		t.Fatalf("value count %d, want %d", len(res.Values), len(clean.Values))
	}
	for i := range res.Values {
		if res.Values[i] != clean.Values[i] {
			t.Fatalf("vertex %d: degraded run computed %v, clean %v", i, res.Values[i], clean.Values[i])
		}
	}

	if got := res.MaxDegradeLevel(); got != resilience.LevelBypass {
		t.Fatalf("storm only degraded to %v, want bypass", got)
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.DegradeLevel != resilience.LevelNormal {
		t.Fatalf("run ended still degraded at %v — breaker never re-armed", last.DegradeLevel)
	}
	if res.TotalHedges() != 0 || res.Recovery.Hedges != 0 {
		t.Fatalf("NoHedge run issued hedges: iters=%d total=%d", res.TotalHedges(), res.Recovery.Hedges)
	}

	evs := res.Recovery.DegradeEvents
	if len(evs) < 4 {
		t.Fatalf("got %d degrade events, want at least 4 (2 down + 2 up): %v", len(evs), evs)
	}
	if evs[0].From != resilience.LevelNormal || evs[0].To != resilience.LevelNoPrefetch {
		t.Fatalf("first transition %v→%v, want normal→no-prefetch", evs[0].From, evs[0].To)
	}
	var downs, ups int
	for i, ev := range evs {
		if d := ev.To - ev.From; d != 1 && d != -1 {
			t.Fatalf("event %d skips rungs: %v→%v", i, ev.From, ev.To)
		} else if d == 1 {
			downs++
		} else {
			ups++
		}
		if i > 0 {
			if ev.From != evs[i-1].To {
				t.Fatalf("event chain broken at %d: %v→%v after %v→%v", i, ev.From, ev.To, evs[i-1].From, evs[i-1].To)
			}
			if ev.Iter < evs[i-1].Iter {
				t.Fatalf("event iterations out of order: %v then %v", evs[i-1], evs[i])
			}
		}
	}
	if downs != ups {
		t.Fatalf("unbalanced transitions (%d down, %d up) for a run that ended normal", downs, ups)
	}
	if evs[len(evs)-1].To != resilience.LevelNormal {
		t.Fatalf("final transition lands on %v, want normal", evs[len(evs)-1].To)
	}

	// The per-iteration rung must be consistent with the event log: an
	// iteration's recorded level is either the level entering it or the
	// result of a transition stamped with its own iteration number (the
	// start-of-iteration tick can fire one before the level is sampled).
	lvl := resilience.LevelNormal
	ei := 0
	for _, it := range res.Iterations {
		for ei < len(evs) && evs[ei].Iter < it.Iter {
			lvl = evs[ei].To
			ei++
		}
		valid := map[resilience.Level]bool{lvl: true}
		for j := ei; j < len(evs) && evs[j].Iter == it.Iter; j++ {
			valid[evs[j].To] = true
		}
		if !valid[it.DegradeLevel] {
			t.Fatalf("iter %d recorded level %v, not reachable from the event log (entering %v)", it.Iter, it.DegradeLevel, lvl)
		}
	}
}

// TestHedgesRescueHungReadsAndAreCounted runs an engine against a store
// whose reads intermittently hang forever: only hedged duplicates let the
// run finish, and every hedge is accounted in the iteration stats and the
// recovery totals.
func TestHedgesRescueHungReadsAndAreCounted(t *testing.T) {
	clean, err := New(buildStore(t, pathGraph(40), 4, storage.HDD), Config{Model: ModelCOP, Threads: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	ds, fs := faultyStore(t, 40, 4, 1)
	defer fs.ReleaseStalled()
	// Three reads spread across the run hang forever.
	for _, after := range []int64{3, 40, 90} {
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, After: after, Count: 1})
	}
	res, err := New(ds, Config{Model: ModelCOP, Threads: 2, PrefetchDepth: 2, ReadDeadline: 2 * time.Millisecond}).Run(testBFS{})
	if err != nil {
		t.Fatalf("hedging did not rescue the hung reads: %v", err)
	}
	for i := range res.Values {
		if res.Values[i] != clean.Values[i] {
			t.Fatalf("vertex %d: hedged run computed %v, clean %v", i, res.Values[i], clean.Values[i])
		}
	}
	if res.Recovery.Hedges < 3 {
		t.Fatalf("Recovery.Hedges = %d, want >= 3 (one per hung read)", res.Recovery.Hedges)
	}
	if got := res.TotalHedges(); got != res.Recovery.Hedges {
		t.Fatalf("per-iteration hedge sum %d != recovery total %d", got, res.Recovery.Hedges)
	}
}
