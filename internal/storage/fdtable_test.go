package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// versionBlob is version v of a test blob: v itself, then a run of a
// v-dependent byte whose length differs between neighbouring versions, so a
// read that mixed two versions' length and bytes cannot equal either.
func versionBlob(v int) []byte {
	b := make([]byte, 8+(v*37)%501)
	binary.LittleEndian.PutUint64(b, uint64(v))
	for i := 8; i < len(b); i++ {
		b[i] = byte(v)
	}
	return b
}

// blobVersion returns the version b is a whole copy of, or an error.
func blobVersion(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("%d-byte blob", len(b))
	}
	v := int(binary.LittleEndian.Uint64(b))
	if !bytes.Equal(b, versionBlob(v)) {
		return 0, fmt.Errorf("%d bytes headed v%d are not version %d", len(b), v, v)
	}
	return v, nil
}

// TestFileStoreReadsAcrossPuts: readers hammer one blob while a writer
// replaces it 200 times. Every read must be exactly one version, and a read
// issued after Put(v) returned must be v or later — the writer's own read
// right after each Put must be exactly v. The second half is what a stale
// descriptor breaks: with fdTable.insert's generation check removed, a
// reader that opened the old inode just before the rename re-inserts it
// after Put's drop and the table serves v-1 until something evicts it.
//
// A reader only opens on a miss, so the table is held to one entry and
// every fourth read goes to a second blob: "k" keeps being evicted, some
// reader is between its open and its insert at most renames, and the
// mutation fails this test on nearly every run instead of one in ten
// (TestFDTableRefusesInsertAfterDrop replays the interleaving exactly).
func TestFileStoreReadsAcrossPuts(t *testing.T) {
	const readers, versions = 8, 200
	fs := newTestFileStore(t)
	fs.fds.limit = 1
	for name, v := range map[string]int{"k": 1, "other": 0} {
		if err := fs.Put(name, versionBlob(v)); err != nil {
			t.Fatal(err)
		}
	}
	var published atomic.Int64 // the last v whose Put has returned
	published.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if i%4 == 0 {
					if buf, err = fs.ReadAllInto("other", buf); err != nil {
						t.Errorf("read other: %v", err)
						return
					}
				}
				floor := int(published.Load())
				if buf, err = fs.ReadAllInto("k", buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if v, err := blobVersion(buf); err != nil {
					t.Errorf("torn read: %v", err)
					return
				} else if v < floor {
					t.Errorf("read v%d after Put(v%d) had returned", v, floor)
					return
				}
			}
		}()
	}
	for v := 2; v <= versions && !t.Failed(); v++ {
		if err := fs.Put("k", versionBlob(v)); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(v))
		b, err := fs.ReadAll("k")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := blobVersion(b); err != nil || got != v {
			t.Errorf("writer read v%d (%v) right after Put(v%d)", got, err, v)
		}
	}
	close(done)
	wg.Wait()
}

// TestFDTableRefusesInsertAfterDrop replays the race above step by step: a
// reader misses and opens version 1, a Put renames version 2 into place and
// drops the name, and only then does the reader try to insert.
func TestFDTableRefusesInsertAfterDrop(t *testing.T) {
	fs := newTestFileStore(t)
	if err := fs.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	e, gen := fs.fds.acquire("k")
	if e != nil {
		t.Fatal("a blob nobody read has a descriptor")
	}
	f, err := os.Open(filepath.Join(fs.root, "k"))
	if err != nil {
		t.Fatal(err)
	}
	e = newFDEntry("k", f)
	defer e.release()

	if err := fs.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if ev := fs.fds.insert(e, gen); ev != nil || fs.fds.entries["k"] != nil || e.refs.Load() != 1 {
		t.Fatalf("insert after drop: evicted %v, cached %v, refs %d; want the entry left private", ev, fs.fds.entries["k"], e.refs.Load())
	}
	if b, err := fs.ReadAll("k"); err != nil || string(b) != "v2" {
		t.Fatalf("ReadAll after Put = %q, %v; want v2", b, err)
	}
}

// TestStoreDeleteThenPut: a deleted blob is gone — not served from whatever
// the store cached while it existed — and a Put under the same name starts
// afresh.
func TestStoreDeleteThenPut(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("k", []byte("first")); err != nil {
				t.Fatal(err)
			}
			if b, err := s.ReadAll("k"); err != nil || string(b) != "first" {
				t.Fatalf("ReadAll = %q, %v", b, err)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadAll("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("ReadAll after Delete: %v, want ErrNotFound", err)
			}
			if _, err := s.ReadAt("k", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("ReadAt after Delete: %v, want ErrNotFound", err)
			}
			if _, err := s.Size("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Size after Delete: %v, want ErrNotFound", err)
			}
			if err := s.Put("k", []byte("second, longer")); err != nil {
				t.Fatal(err)
			}
			if b, err := s.ReadAll("k"); err != nil || string(b) != "second, longer" {
				t.Fatalf("ReadAll after re-Put = %q, %v", b, err)
			}
		})
	}
}

// TestFileStoreSpellingsShareOneEntry: names that clean to one path are one
// blob to the descriptor table too, so a Put under one spelling is seen by
// a reader using another.
func TestFileStoreSpellingsShareOneEntry(t *testing.T) {
	fs := newTestFileStore(t)
	if err := fs.Put("a/b", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if b, err := fs.ReadAll("a//b"); err != nil || string(b) != "old" {
		t.Fatalf("ReadAll(a//b) = %q, %v", b, err)
	}
	if err := fs.Put("./a/b", []byte("new")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a/b", "a//b", "a/./b"} {
		if b, err := fs.ReadAll(name); err != nil || string(b) != "new" {
			t.Fatalf("ReadAll(%s) after Put(./a/b) = %q, %v", name, b, err)
		}
	}
	if n := len(fs.fds.entries); n != 1 {
		t.Fatalf("%d descriptors cached for one blob", n)
	}
}

// openFDs counts this process's open descriptors (its own directory handle
// included, the same on every call).
func openFDs() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err
}

// TestFileStoreDescriptorBound: eight readers cycle through 64 blobs with
// room for eight descriptors, so nearly every read evicts. No read may fail
// or return a wrong byte (eviction only drops the table's reference; the
// reader's keeps the descriptor open), the process never holds more than
// limit + two per reader (the descriptor a reader is on, and the victim it
// is about to close after an insert), and Close returns it to where it
// started while leaving the store readable.
func TestFileStoreDescriptorBound(t *testing.T) {
	const limit, readers, blobs, rounds = 8, 8, 64, 40
	baseline, err := openFDs()
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	fs := newTestFileStore(t)
	fs.fds.limit = limit
	name := func(i int) string { return fmt.Sprintf("b/%02d", i) }
	for i := 0; i < blobs; i++ {
		if err := fs.Put(name(i), versionBlob(i)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var watcher sync.WaitGroup
	peak := baseline
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-done:
				return
			default:
				n, _ := openFDs()
				peak = max(peak, n)
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for i := r * 5; i < r*5+rounds*blobs; i++ {
				want := versionBlob(i % blobs)
				var err error
				if i%2 == 0 {
					buf, err = fs.ReadAllInto(name(i%blobs), buf)
				} else {
					half := len(want) / 2
					want = want[half:]
					buf, err = fs.ReadAtInto(name(i%blobs), int64(half), int64(len(want)), buf)
				}
				if err != nil || !bytes.Equal(buf, want) {
					t.Errorf("read %d of %s: %d bytes, %v; want %d bytes of version %d", i, name(i%blobs), len(buf), err, len(want), i%blobs)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	watcher.Wait()

	if peak > baseline+limit+2*readers {
		t.Errorf("%d descriptors open at peak, baseline %d: want at most %d more (table) + %d (two per reader)", peak, baseline, limit, 2*readers)
	}
	if n := len(fs.fds.entries); n != limit {
		t.Errorf("table holds %d entries after the run, want its limit %d", n, limit)
	}
	if got, _ := openFDs(); got != baseline+limit {
		t.Errorf("%d descriptors open with no read in flight, want baseline %d + %d", got, baseline, limit)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := openFDs(); got != baseline {
		t.Errorf("%d descriptors open after Close, %d before the store existed", got, baseline)
	}
	if b, err := fs.ReadAll(name(3)); err != nil {
		t.Errorf("read after Close: %v", err)
	} else if v, err := blobVersion(b); err != nil || v != 3 {
		t.Errorf("read after Close: v%d, %v", v, err)
	}
}

// TestFileStoreHitAllocatesNothing: a read of a cached blob into a buffer
// that is already big enough is a map lookup and a pread — plus an fstat
// for a whole read, which must size the blob first.
func TestFileStoreHitAllocatesNothing(t *testing.T) {
	fs := newTestFileStore(t)
	if err := fs.Put("ob/3.7", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64<<10)
	if _, err := fs.ReadAllInto("ob/3.7", buf); err != nil { // the miss
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadAtInto("ob/3.7", 4096, 4096, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadAtInto on a hit: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadAllInto("ob/3.7", buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadAllInto on a hit: %v allocations, want 0", n)
	}
}
