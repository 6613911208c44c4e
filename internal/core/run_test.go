package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/bucket"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// dirty is what fakeRunner leaves in D after an iteration, so the next one
// can tell whether Drive initialised the accumulators in between.
const dirty = -12345

// fakeRunner is a Runner that executes nothing: every iteration activates
// all vertices until `iters` have run, then none. It records what Drive
// asked of it.
type fakeRunner struct {
	iters   int
	iterErr map[int]error
	log     *[]string // shared with the test's other observers; may be nil

	ran []int     // iteration numbers, in call order
	d1  []float64 // d[1] as each iteration found it
}

func (f *fakeRunner) note(format string, args ...any) {
	if f.log != nil {
		*f.log = append(*f.log, fmt.Sprintf(format, args...))
	}
}

func (f *fakeRunner) RunIter(_ Program, iter int, _ *bitset.Frontier, s, d []float64) (*bitset.Frontier, IterStats, error) {
	f.note("iter %d", iter)
	f.ran = append(f.ran, iter)
	f.d1 = append(f.d1, d[1])
	d[1] = dirty
	st := IterStats{Iter: iter, Model: ModelCOP}
	if err := f.iterErr[iter]; err != nil {
		return nil, st, err
	}
	next := bitset.NewFrontier(len(s))
	if len(f.ran) < f.iters {
		next = bitset.FullFrontier(len(s))
	}
	return next, st, nil
}

func (f *fakeRunner) CacheStats() blockstore.CacheStats { return blockstore.CacheStats{} }

// putLog counts Puts per blob and notes each in a shared log.
type putLog struct {
	storage.Store
	mu   sync.Mutex
	puts map[string]int
	log  *[]string
}

func (p *putLog) Put(name string, data []byte) error {
	p.mu.Lock()
	p.puts[name]++
	if p.log != nil {
		*p.log = append(*p.log, "put "+name)
	}
	p.mu.Unlock()
	return p.Store.Put(name, data)
}

// leadOn builds a path graph's store, reopens it through wrap (nil: as it
// is), and returns the engine Drive takes its checkpoints and Context from.
func leadOn(t *testing.T, n int, wrap func(storage.Store) storage.Store, cfg Config) *Engine {
	t.Helper()
	var store storage.Store = storage.NewMemStore(storage.NewDevice(storage.HDD))
	if _, err := blockstore.Build(store, pathGraph(n), 2); err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		store = wrap(store)
	}
	ds, err := blockstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return New(ds, cfg)
}

// TestDriveExitPaths: each way out of Drive runs exactly the iterations it
// should and returns the error of what stopped it.
func TestDriveExitPaths(t *testing.T) {
	errBoom := errors.New("boom")
	noAuxWrites := func(s storage.Store) storage.Store {
		fs := storage.NewFaultStore(s, 1)
		fs.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.FaultPermanent, Name: "aux/"})
		return fs
	}
	cases := []struct {
		name     string
		cfg      Config
		wrap     func(storage.Store) storage.Store
		runner   fakeRunner
		cancelAt int // OnIteration cancels at this iteration; -1: never
		check    func(t *testing.T, res *Result, err error)
		wantRan  []int
	}{
		{
			name: "normal end", runner: fakeRunner{iters: 3}, cancelAt: -1, wantRan: []int{0, 1, 2},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil || !res.Converged || len(res.Iterations) != 3 {
					t.Fatalf("res = %+v, err = %v; want 3 iterations, converged", res, err)
				}
			},
		},
		{
			name: "RunIter error", runner: fakeRunner{iters: 5, iterErr: map[int]error{1: errBoom}}, cancelAt: -1, wantRan: []int{0, 1},
			check: func(t *testing.T, res *Result, err error) {
				var ie *IterError
				if res != nil || !errors.As(err, &ie) || !errors.Is(err, errBoom) || ie.Iter != 1 || ie.Model != ModelCOP {
					t.Fatalf("err = %v, want an IterError for iteration 1 under COP wrapping boom", err)
				}
			},
		},
		{
			name: "cancellation", runner: fakeRunner{iters: 5}, cancelAt: 1, wantRan: []int{0, 1},
			check: func(t *testing.T, res *Result, err error) {
				if res != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "checkpoint write failure", cfg: Config{CheckpointEvery: 1}, wrap: noAuxWrites,
			runner: fakeRunner{iters: 5}, cancelAt: -1, wantRan: []int{0},
			check: func(t *testing.T, res *Result, err error) {
				if res != nil || !errors.Is(err, storage.ErrPermanent) {
					t.Fatalf("err = %v, want the checkpoint's permanent write fault", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := tc.cfg
			cfg.OnIteration = func(st IterStats) {
				if st.Iter == tc.cancelAt {
					cancel()
				}
			}
			lead := leadOn(t, 8, tc.wrap, cfg)
			r := tc.runner
			res, err := Drive(ctx, &r, lead, lead.cfg, testBFS{})
			tc.check(t, res, err)
			if !reflect.DeepEqual(r.ran, tc.wantRan) {
				t.Fatalf("ran iterations %v, want %v", r.ran, tc.wantRan)
			}
		})
	}
}

// TestDriveInitAccumulators: a Monotone run's D is initialised before its
// first executed iteration only — the first after a resume included — and
// any other kind's before every iteration.
func TestDriveInitAccumulators(t *testing.T) {
	t.Run("monotone", func(t *testing.T) {
		lead := leadOn(t, 8, nil, Config{CheckpointEvery: 1, MaxIters: 2})
		r := &fakeRunner{iters: 10}
		if _, err := Drive(context.Background(), r, lead, lead.cfg, testBFS{}); err != nil {
			t.Fatal(err)
		}
		// testBFS starts vertex 1 at +Inf: copied from S once, then left as
		// the first iteration left it.
		if want := []float64{math.Inf(1), dirty}; !reflect.DeepEqual(r.d1, want) {
			t.Fatalf("d[1] entering each iteration = %v, want %v", r.d1, want)
		}

		lead.cfg.Resume, lead.cfg.MaxIters = true, 4
		r = &fakeRunner{iters: 10}
		res, err := Drive(context.Background(), r, lead, lead.cfg, testBFS{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.ResumedIter != 2 || !reflect.DeepEqual(r.ran, []int{2, 3}) {
			t.Fatalf("resumed at %d and ran %v, want 2 and [2 3]", res.Recovery.ResumedIter, r.ran)
		}
		if want := []float64{math.Inf(1), dirty}; !reflect.DeepEqual(r.d1, want) {
			t.Fatalf("after resume: d[1] entering each iteration = %v, want %v", r.d1, want)
		}
	})
	t.Run("additive", func(t *testing.T) {
		lead := leadOn(t, 8, nil, Config{MaxIters: 3})
		r := &fakeRunner{iters: 10}
		if _, err := Drive(context.Background(), r, lead, lead.cfg, testCount{}); err != nil {
			t.Fatal(err)
		}
		if want := []float64{0, 0, 0}; !reflect.DeepEqual(r.d1, want) {
			t.Fatalf("d[1] entering each iteration = %v, want %v", r.d1, want)
		}
	})
}

// TestDriveOnIterationBeforeCheckpoint: an iteration's callback runs before
// the cadence checkpoint that follows it, so a callback that cancels still
// gets that iteration persisted.
func TestDriveOnIterationBeforeCheckpoint(t *testing.T) {
	var log []string
	store := &putLog{puts: map[string]int{}, log: &log}
	lead := leadOn(t, 8, func(s storage.Store) storage.Store { store.Store = s; return store },
		Config{CheckpointEvery: 1, OnIteration: func(st IterStats) { log = append(log, fmt.Sprintf("on %d", st.Iter)) }})
	r := &fakeRunner{iters: 2, log: &log}
	if _, err := Drive(context.Background(), r, lead, lead.cfg, testBFS{}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"iter 0", "on 0", "put aux/ckpt-testBFS.g0",
		"iter 1", "on 1", "put aux/ckpt-testBFS.g1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order:\n got %q\nwant %q", log, want)
	}
}

// perVertexBuckets is an Additive priority program with every vertex in a
// bucket of its own.
type perVertexBuckets struct{ testCount }

func (perVertexBuckets) Priority(v graph.VertexID, _ float64) int64 { return int64(v) }
func (perVertexBuckets) PriorityOrder() bucket.Order                { return bucket.Increasing }
func (perVertexBuckets) EnterBucket(int64)                          {}

// TestDriveToleranceNeverEndsBucketedRun: a quiet iteration converges a
// plain Additive run, but only settles one bucket of a bucketed one. Drive
// stamps each bucketed iteration with the bucket its router popped for it.
func TestDriveToleranceNeverEndsBucketedRun(t *testing.T) {
	const n = 6
	lead := leadOn(t, n, nil, Config{Tolerance: 1}) // the fake reports MaxDelta 0
	r := &fakeRunner{iters: 1}
	res, err := Drive(context.Background(), r, lead, lead.cfg, testCount{})
	if err != nil || !res.Converged || len(r.ran) != 1 {
		t.Fatalf("plain: ran %v, res %+v, err %v; want one iteration, converged", r.ran, res, err)
	}
	r = &fakeRunner{iters: 1}
	res, err = Drive(context.Background(), r, lead, lead.cfg, perVertexBuckets{})
	if err != nil || !res.Converged || len(r.ran) != n {
		t.Fatalf("bucketed: ran %v, res %+v, err %v; want %d iterations (one per bucket), converged", r.ran, res, err, n)
	}
	for k, st := range res.Iterations { // vertex k is bucket k; later ones stay parked
		if !st.Bucketed || st.BucketPri != int64(k) || st.BucketPending != n-1-k {
			t.Fatalf("iteration %d: bucketed %v, priority %d, pending %d; want true, %d, %d", k, st.Bucketed, st.BucketPri, st.BucketPending, k, n-1-k)
		}
	}
}

// TestDriveCancelCheckpointsEachIterationOnce: cancelled during an iteration
// whose end hits the cadence, the run used to write that checkpoint a second
// time into the other generation slot, over the fallback the two slots exist
// to keep. Cancelled off the cadence, the best-effort write still happens.
func TestDriveCancelCheckpointsEachIterationOnce(t *testing.T) {
	const g0, g1 = "aux/ckpt-testBFS.g0", "aux/ckpt-testBFS.g1"
	for _, tc := range []struct {
		name         string
		cancelAt     int
		real         bool
		want0, want1 int
	}{
		{"fake/on the cadence", 1, false, 1, 0},
		{"fake/off the cadence", 2, false, 1, 1},
		{"engine/on the cadence", 1, true, 1, 0},
		{"engine/off the cadence", 2, true, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := &putLog{puts: map[string]int{}}
			lead := leadOn(t, 40, func(s storage.Store) storage.Store { store.Store = s; return store },
				Config{Model: ModelCOP, CheckpointEvery: 2, OnIteration: func(st IterStats) {
					if st.Iter == tc.cancelAt {
						cancel()
					}
				}})
			var r Runner = &fakeRunner{iters: 10}
			if tc.real {
				r = lead
			}
			if _, err := Drive(ctx, r, lead, lead.cfg, testBFS{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if store.puts[g0] != tc.want0 || store.puts[g1] != tc.want1 {
				t.Fatalf("checkpoint writes g0 ×%d, g1 ×%d; want %d and %d", store.puts[g0], store.puts[g1], tc.want0, tc.want1)
			}
			ck, _, err := lead.loadCheckpoint(testBFS{})
			if err != nil || ck == nil || ck.iter != tc.cancelAt+1 {
				t.Fatalf("newest checkpoint = %+v (err %v), want iteration %d", ck, err, tc.cancelAt+1)
			}
		})
	}
}

// TestWithDefaultsIdempotent: the shard coordinator resolves a config and
// its engines resolve it again; the second pass must not undo the first.
func TestWithDefaultsIdempotent(t *testing.T) {
	once := Config{ReadRetries: 3}.WithDefaults()
	twice := once.WithDefaults()
	once.OnIteration, twice.OnIteration = nil, nil
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("WithDefaults is not idempotent:\n once %+v\ntwice %+v", once, twice)
	}
}
