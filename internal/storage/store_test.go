package storage

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// newTestFileStore returns a FileStore on a fresh directory whose
// descriptors are released when the test ends.
func newTestFileStore(tb testing.TB) *FileStore {
	tb.Helper()
	fs, err := NewFileStore(NewDevice(RAM), tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fs.Close() })
	return fs
}

// storesUnderTest builds one of each Store implementation for table-driven
// tests.
func storesUnderTest(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"mem":  NewMemStore(NewDevice(RAM)),
		"file": newTestFileStore(t),
	}
}

func TestStorePutReadAll(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello blocks")
			if err := s.Put("a/b", data); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadAll("a/b")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("ReadAll = %q", got)
			}
		})
	}
}

func TestStoreReadAllMissing(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.ReadAll("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreReadAt(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("x", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadAt("x", 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "3456" {
				t.Fatalf("ReadAt = %q", got)
			}
		})
	}
}

// TestStoreReadAtOutOfRange: both stores give a range the same verdict and
// the same error, and no buffer is sized by a bad length (a corrupt index
// entry can ask for terabytes). Each range is read into no buffer and into
// one with room for it, which FileStore reads before it sizes the file and
// judges only once the read comes back short — the same verdict either way.
func TestStoreReadAtOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		off, n int64
		ok     bool   // inside the 4-byte blob
		want   string // the bytes, when ok
	}{
		{name: "inside", off: 1, n: 2, ok: true, want: "12"},
		{name: "whole", off: 0, n: 4, ok: true, want: "0123"},
		{name: "empty", off: 2, n: 0, ok: true},
		{name: "empty at end", off: 4, n: 0, ok: true},
		{name: "tail", off: 3, n: 1, ok: true, want: "3"},
		{name: "past end", off: 2, n: 10},
		{name: "straddles end", off: 3, n: 2},
		{name: "starts at end", off: 4, n: 1},
		{name: "starts past end", off: 5, n: 0},
		{name: "starts past end, nonempty", off: 5, n: 2},
		{name: "negative off", off: -1, n: 2},
		{name: "negative n", off: 2, n: -1},
		{name: "huge n", off: 0, n: 1 << 42},
		{name: "off+n overflows", off: 2, n: math.MaxInt64},
	}
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("x", []byte("0123")); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				reads := map[string]func() ([]byte, error){
					"ReadAt":     func() ([]byte, error) { return s.ReadAt("x", c.off, c.n) },
					"ReadAtInto": func() ([]byte, error) { return s.ReadAtInto("x", c.off, c.n, nil) },
					"ReadAtInto with room": func() ([]byte, error) {
						return s.ReadAtInto("x", c.off, c.n, make([]byte, 0, 16))
					},
				}
				for op, read := range reads {
					got, err := read()
					switch {
					case c.ok && (err != nil || string(got) != c.want):
						t.Errorf("%s %s(%d, %d) = %q, %v; want %q", c.name, op, c.off, c.n, got, err, c.want)
					case !c.ok && !errors.Is(err, errOutOfRange):
						t.Errorf("%s %s(%d, %d) = %q, %v; want an out-of-range error", c.name, op, c.off, c.n, got, err)
					}
				}
			}
		})
	}
}

// TestFileStoreRangeReadsSeeTruncation: a blob truncated in place behind
// the store, after its descriptor was cached, is read as what it is now. A
// range read into a buffer with room issues its pread before asking the
// file's length, so what catches a range the blob no longer holds is the
// short read — and its refusal is the out-of-range error, like any range
// outside the blob.
func TestFileStoreRangeReadsSeeTruncation(t *testing.T) {
	fs := newTestFileStore(t)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.Put("ob/0.1", data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(data))
	if _, err := fs.ReadAtInto("ob/0.1", 1000, 100, buf); err != nil { // caches the descriptor
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(fs.root, "ob/0.1"), 100); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off, n int64
		ok     bool
	}{
		{off: 0, n: 100, ok: true},
		{off: 99, n: 1, ok: true},
		{off: 50, n: 100},   // straddles the new end
		{off: 1000, n: 100}, // read fine before the truncation
		{off: 100, n: 1},
	} {
		got, err := fs.ReadAtInto("ob/0.1", c.off, c.n, buf)
		switch {
		case c.ok && (err != nil || !bytes.Equal(got, data[c.off:c.off+c.n])):
			t.Errorf("ReadAtInto(%d, %d) after truncation to 100: %d bytes, %v; want the bytes", c.off, c.n, len(got), err)
		case !c.ok && !errors.Is(err, errOutOfRange):
			t.Errorf("ReadAtInto(%d, %d) after truncation to 100: %d bytes, %v; want an out-of-range error", c.off, c.n, len(got), err)
		}
	}
	if got, err := fs.ReadAllInto("ob/0.1", buf); err != nil || len(got) != 100 {
		t.Errorf("ReadAllInto after truncation to 100: %d bytes, %v", len(got), err)
	}
}

func TestStoreSizeDeleteList(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("b", []byte("22")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("a", []byte("1")); err != nil {
				t.Fatal(err)
			}
			if sz, err := s.Size("b"); err != nil || sz != 2 {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			if got := s.List(); !reflect.DeepEqual(got, []string{"a", "b"}) {
				t.Fatalf("List = %v", got)
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete err = %v", err)
			}
			if got := s.List(); !reflect.DeepEqual(got, []string{"b"}) {
				t.Fatalf("List after delete = %v", got)
			}
			if _, err := s.Size("a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Size missing err = %v", err)
			}
		})
	}
}

func TestStorePutOverwrites(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("k", []byte("old-longer"))
			s.Put("k", []byte("new"))
			got, err := s.ReadAll("k")
			if err != nil || string(got) != "new" {
				t.Fatalf("ReadAll = %q, %v", got, err)
			}
		})
	}
}

func TestStoreChargesDevice(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			d := s.Device()
			d.Reset()
			s.Put("k", make([]byte, 1000))
			s.ReadAll("k")
			s.ReadAt("k", 0, 100)
			st := d.Stats()
			if st.SeqWriteBytes != 1000 {
				t.Fatalf("SeqWriteBytes = %d", st.SeqWriteBytes)
			}
			if st.SeqReadBytes != 1000 {
				t.Fatalf("SeqReadBytes = %d", st.SeqReadBytes)
			}
			if st.RandReadBytes != 100 || st.RandAccesses != 1 {
				t.Fatalf("rand stats: %+v", st)
			}
		})
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore(NewDevice(RAM))
	data := []byte("abc")
	s.Put("k", data)
	data[0] = 'z' // caller mutates its buffer after Put
	got, _ := s.ReadAll("k")
	if string(got) != "abc" {
		t.Fatalf("Put did not copy: %q", got)
	}
	got[0] = 'q' // caller mutates returned buffer
	again, _ := s.ReadAll("k")
	if string(again) != "abc" {
		t.Fatalf("ReadAll did not copy: %q", again)
	}
}

func TestFileStoreRejectsEscapingNames(t *testing.T) {
	fs := newTestFileStore(t)
	for _, bad := range []string{"../evil", "/abs", "a/../../b"} {
		if err := fs.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded", bad)
		}
	}
}

func TestFileStoreNestedNames(t *testing.T) {
	fs := newTestFileStore(t)
	if err := fs.Put("deep/nested/blob", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got := fs.List()
	if !reflect.DeepEqual(got, []string{"deep/nested/blob"}) {
		t.Fatalf("List = %v", got)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore(NewDevice(RAM))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				s.Put(name, []byte{byte(i)})
				if b, err := s.ReadAll(name); err != nil || len(b) != 1 {
					t.Errorf("ReadAll(%s): %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(s.List()); got != 8 {
		t.Fatalf("List len = %d", got)
	}
}

func TestFileStoreErrorPaths(t *testing.T) {
	fs := newTestFileStore(t)
	for _, bad := range []string{"../up", "/abs"} {
		if _, err := fs.ReadAll(bad); err == nil {
			t.Errorf("ReadAll(%q) succeeded", bad)
		}
		if _, err := fs.ReadAllInto(bad, nil); err == nil {
			t.Errorf("ReadAllInto(%q) succeeded", bad)
		}
		if _, err := fs.ReadAt(bad, 0, 1); err == nil {
			t.Errorf("ReadAt(%q) succeeded", bad)
		}
		if _, err := fs.ReadAtInto(bad, 0, 1, nil); err == nil {
			t.Errorf("ReadAtInto(%q) succeeded", bad)
		}
		if _, err := fs.Size(bad); err == nil {
			t.Errorf("Size(%q) succeeded", bad)
		}
		if err := fs.Delete(bad); err == nil {
			t.Errorf("Delete(%q) succeeded", bad)
		}
	}
	if _, err := fs.ReadAt("missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAt missing: %v", err)
	}
	if _, err := fs.ReadAtInto("missing", 0, 1, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAtInto missing: %v", err)
	}
	if _, err := fs.ReadAllInto("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAllInto missing: %v", err)
	}
	fs.Put("x", []byte("0123"))
	if _, err := fs.ReadAt("x", -1, 2); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := fs.ReadAtInto("x", 2, -1, nil); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := fs.ReadAtInto("x", 2, 10, nil); err == nil {
		t.Error("overlong range accepted")
	}
}

func TestReadIntoVariantsReuseBuffers(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("k", []byte("abcdef")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 16)
			got, err := s.ReadAllInto("k", buf)
			if err != nil || string(got) != "abcdef" {
				t.Fatalf("ReadAllInto = %q, %v", got, err)
			}
			if cap(got) != 16 && name == "mem" {
				t.Fatalf("buffer not reused: cap %d", cap(got))
			}
			got2, err := s.ReadAtInto("k", 2, 3, got)
			if err != nil || string(got2) != "cde" {
				t.Fatalf("ReadAtInto = %q, %v", got2, err)
			}
		})
	}
}
