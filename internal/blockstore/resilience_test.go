package blockstore

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"husgraph/internal/leaktest"
	"husgraph/internal/storage"
)

// openFaulty builds a small grid on a fresh MemStore and reopens it behind
// a FaultStore so tests can inject latency and hangs.
func openFaulty(t *testing.T) (*DualStore, *storage.FaultStore) {
	t.Helper()
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := Build(mem, chain(64), 4); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	d, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	return d, fs
}

func TestHedgedReadCompletesAroundHungRead(t *testing.T) {
	d, fs := openFaulty(t)
	defer fs.ReleaseStalled() // unpark the losing attempt at teardown
	d.SetHedgePolicy(HedgePolicy{Deadline: 5 * time.Millisecond})
	// The first in-block read hangs forever; the hedge (attempt #2 at the
	// fault store, past Count) reads healthily and must win the race.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, Name: "ib/", Count: 1})

	done := make(chan error, 1)
	go func() {
		blk, err := loadInBlock(d, 0, 1)
		if err == nil && len(blk.Recs) == 0 {
			err = errors.New("hedged load decoded empty")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hedged read failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hedging did not rescue the hung read")
	}
	if got := d.Hedges(); got != 1 {
		t.Fatalf("Hedges() = %d, want 1", got)
	}
	if got := d.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0 (hedges are not retries)", got)
	}
}

// TestSlowReadCompletesWithoutRetry: the deadline marks a read slow, not
// dead. One ten deadlines late is hedged and the load still succeeds without
// touching the retry budget.
func TestSlowReadCompletesWithoutRetry(t *testing.T) {
	d, fs := openFaulty(t)
	d.SetHedgePolicy(HedgePolicy{Deadline: time.Millisecond})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, Name: "ib/", Count: 1, Delay: 10 * time.Millisecond})
	if _, err := loadInBlock(d, 0, 1); err != nil {
		t.Fatalf("slow read failed: %v", err)
	}
	if got := d.Hedges(); got != 1 {
		t.Fatalf("Hedges() = %d, want 1", got)
	}
	if got := d.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0 (a slow read is not a failed one)", got)
	}
}

func TestJitteredBackoffDeterministicWithInjectedRand(t *testing.T) {
	d, fs := openFaulty(t)
	var slept []time.Duration
	d.SetRetryPolicy(RetryPolicy{
		MaxRetries: 3,
		Backoff:    10 * time.Millisecond,
		Jitter:     0.5,
		Rand:       func() float64 { return 0 }, // bottom of [1-j, 1+j)
		Sleep:      func(dur time.Duration) { slept = append(slept, dur) },
	})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/", Count: 2})
	if _, err := loadInBlock(d, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Nominal 10ms then 20ms; jitter factor pinned to 1-0.5 = 0.5.
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("jittered backoff = %v, want %v", slept, want)
	}
}

func TestAbortCutsBackoffShort(t *testing.T) {
	d, fs := openFaulty(t)
	aborted := make(chan struct{})
	close(aborted)
	da := d.WithAbort(aborted)
	da.SetRetryPolicy(RetryPolicy{
		MaxRetries: 5,
		Backoff:    time.Minute, // would hang the test if actually slept
		Abort:      aborted,
	})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/"})
	start := time.Now()
	_, err := loadInBlock(da, 0, 1)
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("aborted retry: err = %v, want wrapped storage.ErrTransient", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("abort did not cut the backoff short (%v)", el)
	}
	// WithAbort shares counters with the parent.
	if got := d.Retries(); got != 1 {
		t.Fatalf("Retries() = %d, want 1 (abort fired during the first backoff)", got)
	}
}

// TestHungHedgeIsBounded pins the interleaving that used to hang a run for
// good: the first in-block read stalls and so does its hedge. The attempt
// must give both up as hung and fail transient — into the retry budget when
// there is one — and once the stalls are released no goroutine may be left.
func TestHungHedgeIsBounded(t *testing.T) {
	for _, retries := range []int{0, 1} {
		before := len(leaktest.Live())
		d, fs := openFaulty(t)
		want, err := loadInBlock(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.SetHedgePolicy(HedgePolicy{Deadline: time.Millisecond})
		d.SetRetryPolicy(RetryPolicy{MaxRetries: retries})
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, Name: "ib/", Count: 2})

		type outcome struct {
			blk testBlock
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			blk, err := loadInBlock(d, 0, 1)
			done <- outcome{blk, err}
		}()
		var got outcome
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			fs.ReleaseStalled()
			t.Fatalf("retries=%d: load still waiting on a hung read and its hung hedge", retries)
		}
		if retries == 0 {
			if !errors.Is(got.err, storage.ErrTransient) {
				t.Fatalf("retries=0: err = %v, want wrapped storage.ErrTransient", got.err)
			}
		} else if got.err != nil || !reflect.DeepEqual(got.blk, want) {
			t.Fatalf("retries=1: load = %+v, %v; want the clean block", got.blk, got.err)
		}
		// Two stalls are the hung read and its one hedge. Hedges() can read
		// higher: on a loaded machine a clean read of the same load (the
		// index, the retry) overruns a 1ms deadline and is hedged as well.
		if c := fs.Counters(); c.Stalls != 2 {
			t.Fatalf("retries=%d: injected %d stalls, want 2 (read and hedge)", retries, c.Stalls)
		}
		if h, r := d.Hedges(), d.Retries(); h < 1 || r != int64(retries) {
			t.Fatalf("retries=%d: Hedges() = %d, Retries() = %d; want ≥ 1, %d", retries, h, r, retries)
		}
		fs.ReleaseStalled()
		if err := leaktest.Check(before, 5*time.Second); err != nil {
			t.Fatalf("retries=%d: %v", retries, err)
		}
	}
}
