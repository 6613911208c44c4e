package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newFaultMem(t *testing.T, seed int64) (*FaultStore, *MemStore) {
	t.Helper()
	mem := NewMemStore(NewDevice(RAM))
	return NewFaultStore(mem, seed), mem
}

func TestFaultStorePassThrough(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadAll("a")
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadAll = %q, %v", b, err)
	}
	c := fs.Counters()
	if c != (FaultCounters{Reads: 1, Writes: 1}) {
		t.Fatalf("counters: %v", c)
	}
}

func TestFaultStoreTransientThenHealthy(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultTransient, After: 1, Count: 2})

	if _, err := fs.ReadAll("a"); err != nil {
		t.Fatalf("read inside After window failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		_, err := fs.ReadAll("a")
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("injection %d: err = %v, want ErrTransient", i, err)
		}
		if errors.Is(err, ErrPermanent) {
			t.Fatalf("transient fault classified permanent: %v", err)
		}
	}
	if _, err := fs.ReadAll("a"); err != nil {
		t.Fatalf("read after plan exhausted failed: %v", err)
	}
	if c := fs.Counters(); c.Transient != 2 || c.Reads != 4 {
		t.Fatalf("counters: %v", c)
	}
}

func TestFaultStorePermanent(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultPermanent})
	for i := 0; i < 3; i++ {
		if _, err := fs.ReadAll("a"); !errors.Is(err, ErrPermanent) {
			t.Fatalf("read %d: err = %v, want ErrPermanent", i, err)
		}
	}
	if c := fs.Counters(); c.Permanent != 3 {
		t.Fatalf("counters: %v", c)
	}
}

func TestFaultStoreNameFilter(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	for _, n := range []string{"ib/0.0", "ob/0.0"} {
		if err := fs.Put(n, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultPermanent, Name: "ib/"})
	if _, err := fs.ReadAll("ob/0.0"); err != nil {
		t.Fatalf("unmatched name failed: %v", err)
	}
	if _, err := fs.ReadAll("ib/0.0"); !errors.Is(err, ErrPermanent) {
		t.Fatalf("matched name: err = %v", err)
	}
}

func TestFaultStoreBitFlipDeterministic(t *testing.T) {
	orig := []byte("the quick brown fox jumps over the lazy dog")
	read := func(seed int64) []byte {
		fs, _ := newFaultMem(t, seed)
		if err := fs.Put("a", orig); err != nil {
			t.Fatal(err)
		}
		fs.Inject(Fault{Op: OpRead, Kind: FaultBitFlip, Count: 1})
		b, err := fs.ReadAll("a")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := read(7), read(7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different corruption:\n%q\n%q", a, b)
	}
	if bytes.Equal(a, orig) {
		t.Fatal("bit flip did not corrupt the data")
	}
	diff := 0
	for i := range a {
		for bit := 0; bit < 8; bit++ {
			if (a[i]^orig[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	fs, mem := newFaultMem(t, 3)
	fs.Inject(Fault{Op: OpWrite, Kind: FaultTorn, Count: 1})
	data := bytes.Repeat([]byte("payload!"), 64)
	if err := fs.Put("a", data); err != nil {
		t.Fatalf("torn write must report success (the crash model): %v", err)
	}
	got, err := mem.ReadAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(data) {
		t.Fatalf("stored %d bytes, want a strict prefix of %d", len(got), len(data))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("torn write stored non-prefix bytes")
	}
	if c := fs.Counters(); c.TornWrites != 1 {
		t.Fatalf("counters: %v", c)
	}
	// Second write is healthy.
	if err := fs.Put("a", data); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.ReadAll("a"); !bytes.Equal(got, data) {
		t.Fatal("post-plan write still torn")
	}
}

func TestFaultStorePlanOrderPrecedence(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(
		Fault{Op: OpRead, Kind: FaultTransient, Count: 1},
		Fault{Op: OpRead, Kind: FaultPermanent, Count: 1},
	)
	if _, err := fs.ReadAll("a"); !errors.Is(err, ErrTransient) {
		t.Fatalf("first read: %v, want transient (first plan wins)", err)
	}
	if _, err := fs.ReadAll("a"); !errors.Is(err, ErrPermanent) {
		t.Fatalf("second read: %v, want permanent (first plan exhausted)", err)
	}
	if _, err := fs.ReadAll("a"); err != nil {
		t.Fatalf("third read: %v, want success", err)
	}
}

func TestFaultStoreConcurrentUse(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultTransient, Count: 50})
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := fs.ReadAll("a"); err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed != 50 {
		t.Fatalf("injected %d faults, want 50", failed)
	}
	if c := fs.Counters(); c.Reads != 200 || c.Transient != 50 {
		t.Fatalf("counters: %v", c)
	}
}

func TestFileStorePutAtomicLeavesNoTempFiles(t *testing.T) {
	fs := newTestFileStore(t)
	dir := fs.root
	if err := fs.Put("sub/blob", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("sub/blob", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadAll("sub/blob")
	if err != nil || string(b) != "v2-longer" {
		t.Fatalf("ReadAll = %q, %v", b, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "blob" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only [blob]", names)
	}
	if got := fs.List(); len(got) != 1 || got[0] != "sub/blob" {
		t.Fatalf("List = %v", got)
	}
}

func TestFileStoreListSkipsOrphanedTempFiles(t *testing.T) {
	fs := newTestFileStore(t)
	dir := fs.root
	if err := fs.Put("blob", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that left a temp file behind.
	if err := os.WriteFile(filepath.Join(dir, ".blob.tmp-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := fs.List(); len(got) != 1 || got[0] != "blob" {
		t.Fatalf("List = %v, want [blob]", got)
	}
}

func TestFaultStoreDelayCompletesHealthy(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultDelay, Count: 2, Delay: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 2; i++ {
		b, err := fs.ReadAll("a")
		if err != nil || string(b) != "payload" {
			t.Fatalf("delayed read %d = %q, %v", i, b, err)
		}
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("two 2ms delay injections elapsed only %v", el)
	}
	// Plan exhausted: back to fast.
	if _, err := fs.ReadAll("a"); err != nil {
		t.Fatal(err)
	}
	if c := fs.Counters(); c.Delays != 2 || c.Stalls != 0 {
		t.Fatalf("counters: %v", c)
	}
}

func TestFaultStoreStallParksUntilReleased(t *testing.T) {
	fs, _ := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(Fault{Op: OpRead, Kind: FaultStall, Count: 1})

	done := make(chan error, 1)
	go func() {
		b, err := fs.ReadAll("a")
		if err == nil && string(b) != "stuck" {
			err = errors.New("wrong payload after release")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled read returned early (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	fs.ReleaseStalled()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released read failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read still parked after ReleaseStalled")
	}
	// Idempotent, and future stalls pass straight through the open gate.
	fs.ReleaseStalled()
	fs.Inject(Fault{Op: OpRead, Kind: FaultStall, Count: 1})
	if _, err := fs.ReadAll("a"); err != nil {
		t.Fatalf("post-release stall did not pass through: %v", err)
	}
	if c := fs.Counters(); c.Stalls != 2 {
		t.Fatalf("counters: %v", c)
	}
}

// TestFaultStoreStalledReadChargedOnRelease: a stalled read is held before
// the inner store is reached, so its device is charged nothing while it is
// parked and the read once it is released — as a shard's DeviceStore, which
// charges a read when its answer returns, would charge it.
func TestFaultStoreStalledReadChargedOnRelease(t *testing.T) {
	fs, mem := newFaultMem(t, 1)
	if err := fs.Put("a", []byte("stuck bytes")); err != nil {
		t.Fatal(err)
	}
	dev := mem.Device()
	dev.Reset()
	fs.Inject(Fault{Op: OpRead, Kind: FaultStall, Count: 1})
	done := make(chan error, 1)
	go func() {
		_, err := fs.ReadAt("a", 6, 5)
		done <- err
	}()
	for fs.Counters().Stalls == 0 { // the read has decided its stall
		time.Sleep(time.Millisecond)
	}
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := dev.Stats(); st.ReadBytes() != 0 || st.RandAccesses != 0 {
			t.Fatalf("a parked read charged its device: %v", st)
		}
	}
	fs.ReleaseStalled()
	if err := <-done; err != nil {
		t.Fatalf("released read failed: %v", err)
	}
	if st := dev.Stats(); st.RandReadBytes != 5 || st.RandAccesses != 1 || st.SeqReadBytes != 0 {
		t.Fatalf("the released read charged %v, want 5 bytes in one random access", st)
	}
}
