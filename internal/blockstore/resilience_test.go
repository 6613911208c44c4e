package blockstore

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
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
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	d, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// TestSlowReadCompletesWithoutRetry: a read slower than usual but inside
// the deadline is answered by its one attempt and costs no retry.
func TestSlowReadCompletesWithoutRetry(t *testing.T) {
	d, fs := openFaulty(t)
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 1, Deadline: time.Second})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, Name: "ib/", Count: 1, Delay: 10 * time.Millisecond})
	if _, err := loadInBlock(d, 0, 1); err != nil {
		t.Fatalf("slow read failed: %v", err)
	}
	if c := fs.Counters(); c.Delays != 1 {
		t.Fatalf("injected %d delays, want 1", c.Delays)
	}
	if got := d.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0 (a slow read is not a failed one)", got)
	}
}

// TestTimedOutReadCostsOneRetry pins the deadline itself: an attempt still
// unanswered at the deadline fails transient and costs exactly one retry.
// Between the timeout and the retry the blob is rewritten with its first
// neighbour changed, so the retry's bytes differ from the ones the hung
// attempt holds: the load must return the retry's, and once the hung
// attempt is released and answers, its bytes must not reach the caller's
// buffer, and no goroutine may be left.
func TestTimedOutReadCostsOneRetry(t *testing.T) {
	before := len(leaktest.Live())
	d, fs := openFaulty(t)
	defer fs.ReleaseStalled()
	name := inBlockName(0, 1)
	framed, err := fs.Store.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := unframeBlob(name, framed)
	if err != nil {
		t.Fatal(err)
	}
	fresh := append([]byte(nil), payload...)
	fresh[0] ^= 1 // chain(64): the neighbour stays a vertex
	d.SetRetryPolicy(RetryPolicy{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		Deadline:   100 * time.Millisecond,
		Sleep: func(time.Duration) {
			if err := fs.Store.Put(name, frameBlob(fresh)); err != nil {
				t.Error(err)
			}
		},
	})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, Name: name, Count: 1})

	sc := GetScratch()
	defer PutScratch(sc)
	recs, _, err := loadInBlockRecords(d, 0, 1, sc)
	if err != nil {
		t.Fatalf("load past a timed-out attempt: %v", err)
	}
	if got := d.Retries(); got != 1 {
		t.Fatalf("Retries() = %d, want 1 (one timed-out attempt)", got)
	}
	if !bytes.Equal(recs, fresh) {
		t.Fatal("load returned the hung attempt's bytes, not the retry's")
	}
	fs.ReleaseStalled()
	if err := leaktest.Check(before, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recs, fresh) {
		t.Fatal("the released attempt's late answer overwrote the loaded records")
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

// TestBackoffLadderNeverShrinks: the k-th retry sleeps
// min(Backoff·2^(k-1), max(Backoff, 250ms)), so a Backoff above the 250ms cap
// is the ladder's every rung rather than a first sleep the cap then cuts.
func TestBackoffLadderNeverShrinks(t *testing.T) {
	for _, tc := range []struct {
		backoff time.Duration
		want    []time.Duration
	}{
		{time.Second, []time.Duration{time.Second, time.Second, time.Second}},
		{100 * time.Millisecond, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond}},
	} {
		d, fs := openFaulty(t)
		var slept []time.Duration
		d.SetRetryPolicy(RetryPolicy{
			MaxRetries: 3,
			Backoff:    tc.backoff,
			Sleep:      func(dur time.Duration) { slept = append(slept, dur) },
		})
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/", Count: 3})
		if _, err := loadInBlock(d, 0, 1); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(slept, tc.want) {
			t.Fatalf("Backoff %v: slept %v, want %v", tc.backoff, slept, tc.want)
		}
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

// TestStalledReadsEndAtTheDeadline pins the interleaving that used to hang a run for
// good: two consecutive in-block reads stall. Each attempt fails transient
// at the deadline, so with no retry budget the load ends ErrTransient naming
// the deadline, and with two retries the third attempt returns the clean
// block. Once the stalls are released no goroutine may be left.
func TestStalledReadsEndAtTheDeadline(t *testing.T) {
	for _, retries := range []int{0, 2} {
		before := len(leaktest.Live())
		d, fs := openFaulty(t)
		want, err := loadInBlock(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.SetRetryPolicy(RetryPolicy{MaxRetries: retries, Deadline: 50 * time.Millisecond})
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
			t.Fatalf("retries=%d: load still waiting on a hung read", retries)
		}
		if retries == 0 {
			//lint:ignore huslint/errclass the class is checked by errors.Is; the text is checked for the deadline it names to the user
			if !errors.Is(got.err, storage.ErrTransient) || !strings.Contains(got.err.Error(), "50ms read deadline") {
				t.Fatalf("retries=0: err = %v, want wrapped storage.ErrTransient naming the deadline", got.err)
			}
		} else if got.err != nil || !reflect.DeepEqual(got.blk, want) {
			t.Fatalf("retries=%d: load = %+v, %v; want the clean block", retries, got.blk, got.err)
		}
		// One stall per attempt the budget allows, up to the two injected.
		if c := fs.Counters(); c.Stalls != int64(min(retries+1, 2)) {
			t.Fatalf("retries=%d: injected %d stalls, want %d", retries, c.Stalls, min(retries+1, 2))
		}
		if r := d.Retries(); r != int64(retries) {
			t.Fatalf("retries=%d: Retries() = %d, want %d", retries, r, retries)
		}
		fs.ReleaseStalled()
		if err := leaktest.Check(before, 5*time.Second); err != nil {
			t.Fatalf("retries=%d: %v", retries, err)
		}
	}
}
