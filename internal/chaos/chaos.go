// Package chaos is the randomized resilience harness: it runs the
// benchmark algorithms against stores with seeded fault, latency and hang
// schedules — optionally killing and resuming the run mid-flight — and
// checks the engine's core resilience contract: results bit-identical to a
// clean run, bounded wall-clock (hedges route around hung reads), and
// recovery accounting that adds up exactly.
//
// The harness is deliberately deterministic per seed: every schedule is
// derived from its seed alone, so a failing seed reproduces locally with
// no flake hunting.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/experiments"
	"husgraph/internal/gen"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// Algo is one benchmark program of the chaos matrix: the experiments
// registry's entry, run as the paper's evaluation runs it.
type Algo = experiments.Algo

// Matrix returns the algorithms the chaos suite exercises, in this order:
// one monotone traversal (BFS), one monotone label propagation on the
// symmetrized graph (WCC), and one additive fixed-iteration program
// (PageRank).
func Matrix() []Algo {
	var m []Algo
	for _, name := range []string{"BFS", "WCC", "PageRank"} {
		a, err := AlgoByName(name)
		if err != nil {
			panic(err) // all three are registered
		}
		m = append(m, a)
	}
	return m
}

// AlgoByName resolves a registered algorithm (experiments.AlgoByName).
func AlgoByName(name string) (Algo, error) { return experiments.AlgoByName(name) }

// Schedule is one seeded chaos scenario: an ordered fault-injection plan
// plus an optional mid-run kill.
type Schedule struct {
	// Name labels the schedule in reports.
	Name string
	// Seed drives both the FaultStore's deterministic randomness and the
	// schedule derivation.
	Seed int64
	// Faults is the ordered injection plan handed to the FaultStore.
	Faults []storage.Fault
	// KillAtIter, when > 0, cancels the run after that iteration
	// completes; the harness then reopens the store cold (a crashed
	// process restarting) and resumes from the checkpoint.
	KillAtIter int
}

// RandomSchedule derives a schedule from seed alone: a few transient-fault
// bursts, one or more latency storms, at most one hung read (rescued by
// hedging — two concurrent hangs could defeat a single hedge), and a coin
// flip on killing the run mid-flight.
func RandomSchedule(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var faults []storage.Fault
	// After offsets stay small so the plan bites even on fast-converging
	// runs (WCC finishes in a handful of iterations).
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		faults = append(faults, storage.Fault{
			Op: storage.OpRead, Kind: storage.FaultTransient,
			After: int64(rng.Intn(120)), Count: 1 + int64(rng.Intn(3)),
		})
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		faults = append(faults, storage.Fault{
			Op: storage.OpRead, Kind: storage.FaultDelay,
			After: int64(rng.Intn(120)), Count: int64(5 + rng.Intn(40)),
			Delay:       time.Duration(200+rng.Intn(1200)) * time.Microsecond,
			DelayJitter: time.Duration(1+rng.Intn(500)) * time.Microsecond,
		})
	}
	if rng.Intn(2) == 0 {
		faults = append(faults, storage.Fault{
			Op: storage.OpRead, Kind: storage.FaultStall,
			After: int64(rng.Intn(100)), Count: 1,
		})
	}
	kill := 0
	if rng.Intn(2) == 0 {
		kill = 2 + rng.Intn(3)
	}
	return Schedule{Name: fmt.Sprintf("seed-%d", seed), Seed: seed, Faults: faults, KillAtIter: kill}
}

// Tuning is the engine configuration under test. The zero value gets the
// full-resilience defaults from withDefaults.
type Tuning struct {
	Model         core.Model
	Threads       int
	P             int
	PrefetchDepth int
	ReadRetries   int
	ReadDeadline  time.Duration
	// Format is the chaotic store's block format (the clean oracle always
	// runs raw, so compressed chaos runs are checked against an
	// uncompressed reference). Zero value is FormatRaw.
	Format blockstore.Format
	// Shards runs the chaotic side through the K-shard coordinator
	// (internal/shard) while the clean oracle stays on the single engine,
	// so bit-identity is checked across the sharding seam itself. K must
	// divide P.
	Shards int
	// Vertices and Edges scale the R-MAT test graph.
	Vertices, Edges int
}

func (t Tuning) withDefaults() Tuning {
	if t.Threads <= 0 {
		t.Threads = 2
	}
	if t.P <= 0 {
		t.P = 4
	}
	if t.PrefetchDepth <= 0 {
		t.PrefetchDepth = 2
	}
	if t.ReadRetries <= 0 {
		t.ReadRetries = 4
	}
	if t.ReadDeadline <= 0 {
		t.ReadDeadline = 2 * time.Millisecond
	}
	if t.Vertices <= 0 {
		t.Vertices = 1200
	}
	if t.Edges <= 0 {
		t.Edges = 5000
	}
	return t
}

// Report is the outcome of one chaos run: the clean oracle, the final
// chaotic result, and what the injection machinery observed.
type Report struct {
	Algo     string
	Sched    Schedule
	Tune     Tuning
	Clean    *core.Result
	Chaotic  *core.Result
	Killed   bool
	Resumed  bool
	Counters storage.FaultCounters
	Elapsed  time.Duration
}

// Execute runs algo twice over the same seeded graph — once clean on a
// healthy store (the oracle), once under the schedule's fault plan with the
// full resilience stack enabled — and returns both results. When the
// schedule kills the run, the store is reopened cold and the run resumed
// from its checkpoint, mimicking a crashed process restarting. Stalled
// operations are released before returning so no goroutine stays parked.
func Execute(a Algo, tune Tuning, sched Schedule) (*Report, error) {
	tune = tune.withDefaults()
	rep := &Report{Algo: a.Name, Sched: sched, Tune: tune}
	start := time.Now()

	// a.New takes the unsymmetrized graph; the stores hold g.
	orig := gen.RMAT(tune.Vertices, tune.Edges, gen.Graph500, rand.New(rand.NewSource(sched.Seed)))
	g := orig
	if a.Symmetric {
		g = g.Symmetrize()
	}

	// Clean oracle: no faults, no resilience machinery — the reference
	// values chaos must reproduce bit-for-bit.
	cleanDS, err := blockstore.Build(storage.NewMemStore(storage.NewDevice(storage.SSD)), g, tune.P)
	if err != nil {
		return nil, err
	}
	rep.Clean, err = core.New(cleanDS, core.Config{
		Model: tune.Model, Threads: tune.Threads, MaxIters: a.MaxIters,
	}).Run(a.New(orig))
	if err != nil {
		return nil, fmt.Errorf("chaos: clean oracle run: %w", err)
	}

	// Chaotic run: same graph on a fresh store, every read gated by the
	// seeded fault plan.
	mem := storage.NewMemStore(storage.NewDevice(storage.SSD))
	if _, err := blockstore.BuildWithFormat(mem, g, tune.P, tune.Format); err != nil {
		return nil, err
	}
	fs := storage.NewFaultStore(mem, sched.Seed)
	defer fs.ReleaseStalled()
	ds, err := blockstore.Open(fs)
	if err != nil {
		return nil, err
	}
	for _, f := range sched.Faults {
		fs.Inject(f)
	}

	cfg := core.Config{
		Model:           tune.Model,
		Threads:         tune.Threads,
		MaxIters:        a.MaxIters,
		PrefetchDepth:   tune.PrefetchDepth,
		ReadRetries:     tune.ReadRetries,
		RetryBackoff:    100 * time.Microsecond,
		ReadDeadline:    tune.ReadDeadline,
		CheckpointEvery: 2,
		Resume:          true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if sched.KillAtIter > 0 {
		kill := sched.KillAtIter
		cfg.OnIteration = func(st core.IterStats) {
			if st.Iter == kill {
				cancel()
			}
		}
	}
	// runChaotic runs the chaotic side through the K-shard coordinator (one
	// engine at K ≤ 1); the clean oracle above is a bare engine, so sharded
	// schedules verify bit-identity across the sharding seam.
	runChaotic := func(ctx context.Context, ds *blockstore.DualStore, cfg core.Config) (*core.Result, error) {
		co, err := shard.New(ds, shard.Config{Config: cfg, Shards: tune.Shards})
		if err != nil {
			return nil, err
		}
		return co.RunContext(ctx, a.New(orig))
	}
	res, err := runChaotic(ctx, ds, cfg)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			rep.Counters = fs.Counters()
			return rep, fmt.Errorf("chaos: %s under %s: %w", a.Name, sched.Name, err)
		}
		// The schedule killed the run. Reopen the store cold — a crashed
		// process restarting — and resume from the checkpoint. The reopen
		// itself may hit leftover injected transients; a restarting process
		// retries those (corrupt or permanent errors still fail the run).
		rep.Killed = true
		cfg.OnIteration = nil
		var ds2 *blockstore.DualStore
		for attempt := 0; ; attempt++ {
			ds2, err = blockstore.Open(fs)
			if err == nil {
				break
			}
			if attempt >= tune.ReadRetries || !errors.Is(err, storage.ErrTransient) {
				return nil, err
			}
		}
		res, err = runChaotic(context.Background(), ds2, cfg)
		if err != nil {
			rep.Counters = fs.Counters()
			return rep, fmt.Errorf("chaos: %s resume under %s: %w", a.Name, sched.Name, err)
		}
		rep.Resumed = res.Recovery.ResumedIter > 0
	}
	rep.Chaotic = res
	rep.Counters = fs.Counters()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Verify checks the resilience contract on a completed report:
// bit-identical values, hedge accounting that adds up, and retry accounting
// bounded by the injected faults. Returns the first violation found.
func Verify(rep *Report) error {
	clean, chaotic := rep.Clean, rep.Chaotic
	if chaotic == nil {
		return fmt.Errorf("%s/%s: no chaotic result", rep.Algo, rep.Sched.Name)
	}
	if len(chaotic.Values) != len(clean.Values) {
		return fmt.Errorf("%s/%s: %d values, clean has %d", rep.Algo, rep.Sched.Name, len(chaotic.Values), len(clean.Values))
	}
	for i := range chaotic.Values {
		if chaotic.Values[i] != clean.Values[i] {
			return fmt.Errorf("%s/%s: vertex %d diverged: chaotic %v, clean %v", rep.Algo, rep.Sched.Name, i, chaotic.Values[i], clean.Values[i])
		}
	}
	// Recovery accounting. Per-iteration sums never exceed the run totals
	// (the totals additionally cover checkpoint loading); every retry was
	// caused by an injected transient fault.
	if got, sum := chaotic.Recovery.Retries, chaotic.TotalRetries(); got < sum {
		return fmt.Errorf("%s/%s: Recovery.Retries %d < per-iteration sum %d", rep.Algo, rep.Sched.Name, got, sum)
	}
	if got, sum := chaotic.Recovery.Hedges, chaotic.TotalHedges(); got < sum {
		return fmt.Errorf("%s/%s: Recovery.Hedges %d < per-iteration sum %d", rep.Algo, rep.Sched.Name, got, sum)
	}
	if rep.Counters.Transient > 0 && chaotic.Recovery.Retries > rep.Counters.Transient {
		// A retry without a matching injected fault means double counting
		// (the resumed phase shares the counter, so compare run totals).
		if !rep.Killed {
			return fmt.Errorf("%s/%s: %d retries for %d injected transient faults", rep.Algo, rep.Sched.Name, chaotic.Recovery.Retries, rep.Counters.Transient)
		}
	}
	if rep.Killed && rep.Resumed && chaotic.Recovery.ResumedIter <= 0 {
		return fmt.Errorf("%s/%s: killed run resumed from iteration 0", rep.Algo, rep.Sched.Name)
	}
	return nil
}
