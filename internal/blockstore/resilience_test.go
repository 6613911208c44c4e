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
// unanswered at the deadline fails transient and costs exactly one retry,
// whose answer is the load's. The hung attempt is released only after the
// blob is rewritten, so its late answer holds other bytes: they must not
// reach the caller's scratch, which the loaded payload aliases, and no
// goroutine may be left.
func TestTimedOutReadCostsOneRetry(t *testing.T) {
	before := len(leaktest.Live())
	d, fs := openFaulty(t)
	defer fs.ReleaseStalled()
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 1, Deadline: 100 * time.Millisecond})
	sc := GetScratch()
	defer PutScratch(sc)
	warm, err := d.LoadInBlockScratch(0, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), warm...)

	name := inBlockName(0, 1)
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, Name: name, Count: 1})
	payload, err := d.LoadInBlockScratch(0, 1, sc)
	if err != nil {
		t.Fatalf("load past a timed-out attempt: %v", err)
	}
	if got := d.Retries(); got != 1 {
		t.Fatalf("Retries() = %d, want 1 (one timed-out attempt)", got)
	}
	if !bytes.Equal(payload, clean) {
		t.Fatal("load past a timed-out attempt returned other bytes than a clean load")
	}
	fresh := append([]byte(nil), clean...)
	fresh[0] ^= 1
	if err := fs.Store.Put(name, frameBlob(fresh)); err != nil {
		t.Fatal(err)
	}
	fs.ReleaseStalled()
	if err := leaktest.Check(before, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, clean) {
		t.Fatal("the released attempt's late answer overwrote the loaded payload")
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
