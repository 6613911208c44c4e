package core

import (
	"errors"
	"testing"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// faultyStore builds a dual-block store over g and returns it together
// with the storage.FaultStore gating every access, so tests inject faults
// after the (fault-free) Build and Open phases.
func faultyStore(t *testing.T, n, p int, seed int64) (*blockstore.DualStore, *storage.FaultStore) {
	t.Helper()
	g := pathGraph(n)
	mem := storage.NewMemStore(storage.NewDevice(storage.HDD))
	if _, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, seed)
	ds, err := blockstore.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	return ds, fs
}

func TestEngineSurfacesReadFaultsCOP(t *testing.T) {
	for _, after := range []int64{0, 1, 3, 7} {
		ds, fs := faultyStore(t, 300, 4, 1)
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, After: after})
		_, err := New(ds, Config{Model: ModelCOP, Threads: 2}).Run(testBFS{})
		if err == nil {
			t.Fatalf("after=%d: injected fault not surfaced", after)
		}
		if !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("after=%d: error chain lost the cause: %v", after, err)
		}
		var ie *IterError
		if !errors.As(err, &ie) {
			t.Fatalf("after=%d: error lacks iteration context: %v", after, err)
		}
		if ie.Model != ModelCOP {
			t.Fatalf("after=%d: IterError.Model = %v, want COP", after, ie.Model)
		}
	}
}

func TestEngineSurfacesReadFaultsROP(t *testing.T) {
	for _, after := range []int64{0, 1, 2} {
		ds, fs := faultyStore(t, 300, 4, 1)
		fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, After: after})
		_, err := New(ds, Config{Model: ModelROP, Threads: 4}).Run(testBFS{})
		if err == nil {
			t.Fatalf("after=%d: injected fault not surfaced", after)
		}
		if !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("after=%d: error chain lost the cause: %v", after, err)
		}
	}
}

func TestEngineFaultAfterPartialRunStillErrors(t *testing.T) {
	// Enough healthy reads for a couple of iterations, then fail: the
	// engine must stop with an error rather than return wrong results.
	ds, fs := faultyStore(t, 300, 2, 1)
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, After: 40})
	if _, err := New(ds, Config{Model: ModelCOP, Threads: 1}).Run(testBFS{}); err == nil {
		t.Fatal("late fault not surfaced")
	}
}

func TestEngineRetriesTransientFaultsAndReportsCount(t *testing.T) {
	// Five sporadic transient read faults across the run: with retries
	// enabled the run completes, matches a fault-free run, and the retry
	// count lands in the result.
	clean, err := New(buildStore(t, pathGraph(300), 4, storage.HDD), Config{Model: ModelCOP}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}

	ds, fs := faultyStore(t, 300, 4, 1)
	fs.Inject(
		storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 3, Count: 2},
		storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 20, Count: 3},
	)
	res, err := New(ds, Config{Model: ModelCOP, ReadRetries: 3}).Run(testBFS{})
	if err != nil {
		t.Fatalf("transient faults with retries enabled failed the run: %v", err)
	}
	if !res.Converged {
		t.Fatal("retried run did not converge")
	}
	for v := range clean.Values {
		if clean.Values[v] != res.Values[v] {
			t.Fatalf("retried run diverged at vertex %d", v)
		}
	}
	if res.Recovery.Retries != 5 {
		t.Fatalf("Recovery.Retries = %d, want 5", res.Recovery.Retries)
	}
	if got := res.TotalRetries(); got != 5 {
		t.Fatalf("summed IterStats.Retries = %d, want 5", got)
	}
	if c := fs.Counters(); c.Transient != 5 {
		t.Fatalf("fault counters: %v", c)
	}
}

// TestEngineConfigDoesNotLeakAcrossEngines: an engine's retry and deadline
// policies are its own config's, not those of whichever engine configured
// the shared store last. The second engine has no deadline, so a read 20 ms
// late — twenty of the first engine's deadlines — costs it no retry; and it
// asks for no retries, so the one injected transient fault must fail its
// next run.
func TestEngineConfigDoesNotLeakAcrossEngines(t *testing.T) {
	ds, fs := faultyStore(t, 300, 4, 1)
	New(ds, Config{ReadRetries: 3, ReadDeadline: time.Millisecond})
	second := New(ds, Config{Model: ModelCOP})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, After: 3, Count: 1, Delay: 20 * time.Millisecond})
	if _, err := second.Run(testBFS{}); err != nil {
		t.Fatalf("slow read failed an engine with ReadDeadline 0: %v", err)
	}
	if c := fs.Counters(); c.Delays != 1 {
		t.Fatalf("injected %d delays, want 1", c.Delays)
	}
	if got := ds.Retries(); got != 0 {
		t.Fatalf("store retried %d reads for an engine with ReadDeadline 0: the first engine's deadline leaked through the store", got)
	}
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 3, Count: 1})
	_, err := second.Run(testBFS{})
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped storage.ErrTransient: the first engine's ReadRetries leaked through the store", err)
	}
	if got := ds.Retries(); got != 0 {
		t.Fatalf("store retried %d reads for an engine with ReadRetries 0", got)
	}
}

func TestEngineTransientBurstExceedingBudgetFails(t *testing.T) {
	ds, fs := faultyStore(t, 300, 4, 1)
	// A burst longer than the per-read retry budget must surface.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: 5, Count: 10})
	_, err := New(ds, Config{Model: ModelCOP, ReadRetries: 2}).Run(testBFS{})
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped storage.ErrTransient", err)
	}
}

func TestEngineDetectsBitFlipCorruption(t *testing.T) {
	// A bit flip in a full-block read must surface as a checksum-verified
	// corruption error — never decode into garbage values — and must not
	// burn retries (corruption is not transient).
	ds, fs := faultyStore(t, 300, 4, 7)
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultBitFlip, Name: "ib/", After: 2, Count: 1})
	_, err := New(ds, Config{Model: ModelCOP, ReadRetries: 3}).Run(testBFS{})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want wrapped storage.ErrCorrupt", err)
	}
	if got := ds.Retries(); got != 0 {
		t.Fatalf("corruption consumed %d retries", got)
	}

	// Forced ROP reads each out-index as the pages its active sources'
	// groups sit on, and checks them against the meta's page CRCs: on a
	// path of 3900-vertex intervals (4164-byte indices, two pages),
	// iteration k reads out-index (0,0) for vertex k alone, so the flip in
	// the 1024th read — iteration 1023, vertex 1023's group on page
	// [0, 4096) — must end the run in that iteration, ErrCorrupt-class,
	// without a retry.
	ds, fs = faultyStore(t, 4*3900, 4, 7)
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultBitFlip, Name: "oi/", After: 1023, Count: 1})
	_, err = New(ds, Config{Model: ModelROP, ReadRetries: 3}).Run(testBFS{})
	var ie *IterError
	if !errors.As(err, &ie) || !errors.Is(err, storage.ErrCorrupt) || ie.Iter != 1023 {
		t.Fatalf("ROP: err = %v, want a *IterError of iteration 1023 wrapping storage.ErrCorrupt", err)
	}
	if got := fs.Counters().BitFlips; got != 1 {
		t.Fatalf("ROP: %d bits flipped, want 1", got)
	}
	if got := ds.Retries(); got != 0 {
		t.Fatalf("ROP: corruption consumed %d retries", got)
	}
}

// TestHungReadsAreRetriedAndCounted runs an engine against a store
// whose reads intermittently hang forever: each hung attempt times out at
// the read deadline and is retried, the run finishes bit-equal to a clean
// one, and every retry is accounted in the iteration stats and the recovery
// totals.
func TestHungReadsAreRetriedAndCounted(t *testing.T) {
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
	res, err := New(ds, Config{Model: ModelCOP, Threads: 2, PrefetchDepth: 2, ReadRetries: 3, ReadDeadline: 20 * time.Millisecond}).Run(testBFS{})
	if err != nil {
		t.Fatalf("retries did not rescue the hung reads: %v", err)
	}
	for i := range res.Values {
		if res.Values[i] != clean.Values[i] {
			t.Fatalf("vertex %d: retried run computed %v, clean %v", i, res.Values[i], clean.Values[i])
		}
	}
	if res.Recovery.Retries < 3 {
		t.Fatalf("Recovery.Retries = %d, want >= 3 (one per hung read)", res.Recovery.Retries)
	}
	if got := res.TotalRetries(); got != res.Recovery.Retries {
		t.Fatalf("per-iteration retry sum %d != recovery total %d", got, res.Recovery.Retries)
	}
}

func TestOpenSurfacesCorruptMeta(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if err := mem.Put("meta", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := blockstore.Open(mem); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}
