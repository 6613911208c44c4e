package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is a named-blob store whose accesses are charged to a simulated
// Device. Graph shards, blocks and indices are stored as blobs.
//
// Access-pattern contract: ReadAll and Put are charged as sequential
// transfers; ReadAt is charged as one random access. Implementations must be
// safe for concurrent use.
type Store interface {
	// Put writes a blob, replacing any previous contents.
	Put(name string, data []byte) error
	// ReadAll returns the whole blob, charged as a sequential read.
	ReadAll(name string) ([]byte, error)
	// ReadAllInto reads the whole blob into buf (reusing its capacity,
	// growing if needed) and returns the filled slice; charged as a
	// sequential read. Steady-state readers use it to avoid per-read
	// allocations.
	ReadAllInto(name string, buf []byte) ([]byte, error)
	// ReadAt returns n bytes starting at off, charged as one random read.
	// It fails if the range extends past the blob.
	ReadAt(name string, off, n int64) ([]byte, error)
	// ReadAtInto is ReadAt reading into buf (reusing its capacity).
	ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error)
	// Size returns the blob length in bytes.
	Size(name string) (int64, error)
	// Delete removes a blob; deleting a missing blob is an error.
	Delete(name string) error
	// List returns all blob names in lexicographic order.
	List() []string
	// Device returns the device that accounts this store's I/O.
	Device() *Device
}

// ErrNotFound is wrapped by store errors for missing blobs.
var ErrNotFound = fmt.Errorf("storage: blob not found")

// inRange reports whether [off, off+n) lies inside a blob of size bytes,
// without computing off+n (which a corrupt index entry can make overflow).
func inRange(off, n, size int64) bool {
	return off >= 0 && n >= 0 && n <= size && off <= size-n
}

// errOutOfRange is wrapped by both stores' verdict on a range that is not
// inside its blob, so tests can tell it from an I/O error without reading
// the text.
var errOutOfRange = fmt.Errorf("out of range")

func rangeError(name string, off, n, size int64) error {
	return fmt.Errorf("storage: ReadAt(%s, %d, %d) %w (size %d)", name, off, n, errOutOfRange, size)
}

// MemStore is an in-memory Store. It is the default substrate for tests and
// benchmarks: blob contents live on the heap while every access is charged
// to the simulated device, so results are deterministic and fast while the
// accounted I/O matches an on-disk layout byte for byte.
type MemStore struct {
	dev   *Device
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store charging the given device.
func NewMemStore(dev *Device) *MemStore {
	return &MemStore{dev: dev, blobs: make(map[string][]byte)}
}

// Device implements Store.
func (s *MemStore) Device() *Device { return s.dev }

// Put implements Store.
func (s *MemStore) Put(name string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.blobs[name] = cp
	s.mu.Unlock()
	s.dev.WriteSeq(int64(len(data)))
	return nil
}

// ReadAll implements Store.
func (s *MemStore) ReadAll(name string) ([]byte, error) {
	return s.ReadAllInto(name, nil)
}

// ReadAllInto implements Store.
func (s *MemStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.dev.ReadSeq(int64(len(b)))
	return append(buf[:0], b...), nil
}

// ReadAt implements Store.
func (s *MemStore) ReadAt(name string, off, n int64) ([]byte, error) {
	return s.ReadAtInto(name, off, n, nil)
}

// ReadAtInto implements Store.
func (s *MemStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if !inRange(off, n, int64(len(b))) {
		return nil, rangeError(name, off, n, int64(len(b)))
	}
	s.dev.ReadRand(n, 1)
	return append(buf[:0], b[off:off+n]...), nil
}

// Size implements Store.
func (s *MemStore) Size(name string) (int64, error) {
	s.mu.RLock()
	b, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(b)), nil
}

// Delete implements Store.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.blobs, name)
	return nil
}

// List implements Store.
func (s *MemStore) List() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.blobs))
	for n := range s.blobs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// FileStore is a Store backed by real files in a directory, for genuine
// out-of-core runs from the CLI. Blob names map to file paths beneath the
// root; path separators in names create subdirectories. Simulated costs are
// charged identically to MemStore so reported I/O amounts are comparable.
//
// Reads go through a table of open descriptors: a blob is opened on its
// first read and every later read is one pread on that descriptor, with
// nothing allocated. The contract that makes this sound:
//
//   - The store is its blobs' only writer. Put and Delete drop the name's
//     descriptor, so a read that starts after either returns sees the new
//     state. A blob replaced (renamed over) by another process or another
//     FileStore keeps being served from the old inode until Close or
//     eviction reopens it; one truncated or rewritten in place is seen as
//     it is, since every read asks the file: a whole read sizes it first,
//     and a range read past its current end comes back short and is
//     refused as out of range.
//   - At most a fixed number of descriptors stay open (a quarter of
//     RLIMIT_NOFILE, see openBlobLimit), least recently read evicted
//     first; a read in flight keeps its own open if evicted meanwhile, and
//     holds the one it evicted for the moment it takes to close it.
//   - Close releases them all. The store stays usable: the next read
//     reopens.
type FileStore struct {
	dev  *Device
	root string
	fds  *fdTable
}

// NewFileStore returns a store rooted at dir, creating it if needed.
func NewFileStore(dev *Device, dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &FileStore{dev: dev, root: dir, fds: newFDTable(openBlobLimit())}, nil
}

// Device implements Store.
func (s *FileStore) Device() *Device { return s.dev }

// Close releases every cached read descriptor. Reads in flight finish on
// theirs; later reads reopen.
func (s *FileStore) Close() error {
	for _, e := range s.fds.dropAll() {
		e.release()
	}
	return nil
}

// blobKey validates a blob name and returns its cleaned form: the path
// beneath the root and the descriptor table's key, so that every spelling
// of one path ("a/b", "a//b", "./a/b") shares — and Put drops — one entry.
// filepath.Clean returns an already clean name as is, without allocating.
func blobKey(name string) (string, error) {
	clean := filepath.Clean(name)
	if clean == "." || strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("storage: invalid blob name %q", name)
	}
	return clean, nil
}

// notFound maps a missing file to ErrNotFound and passes other errors on.
func notFound(name string, err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return err
}

// Put implements Store. The blob is written to a temp file in the target
// directory and renamed into place, so a crash mid-write leaves either the
// old contents or the new — never a torn prefix.
func (s *FileStore) Put(name string, data []byte) error {
	key, err := blobKey(name)
	if err != nil {
		return err
	}
	p := filepath.Join(s.root, key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(p)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.fds.drop(key).release()
	s.dev.WriteSeq(int64(len(data)))
	return nil
}

// open returns name's descriptor with a reference the caller must release:
// the table's on a hit; on a miss a newly opened one, which joins the table
// unless a Put or Delete came between the miss and the insert.
func (s *FileStore) open(name string) (*fdEntry, error) {
	key, err := blobKey(name)
	if err != nil {
		return nil, err
	}
	e, gen := s.fds.acquire(key)
	if e != nil {
		return e, nil
	}
	f, err := os.Open(filepath.Join(s.root, key))
	if err != nil {
		return nil, notFound(name, err)
	}
	e = newFDEntry(key, f)
	s.fds.insert(e, gen).release()
	return e, nil
}

// read is the store's one read path: the whole blob when whole is set,
// otherwise the range [off, off+n), which must lie inside the blob.
//
// A whole read, an empty range and a range buf has no room for size the
// file first, so nothing is allocated from an unchecked n. A range of n > 0
// bytes that buf has room for is read straight away; a pread that comes back
// short (past the end, or a blob truncated behind the store) or fails is
// judged against the file's length only then, so its refusal is the same
// errOutOfRange an unread range gets.
func (s *FileStore) read(name string, off, n int64, whole bool, buf []byte) ([]byte, error) {
	e, err := s.open(name)
	if err != nil {
		return nil, err
	}
	defer e.release()
	if whole || n <= 0 || int64(cap(buf)) < n {
		size, err := e.size()
		if err != nil {
			return nil, fmt.Errorf("storage: stat %s: %w", name, err)
		}
		if whole {
			off, n = 0, size
		} else if !inRange(off, n, size) {
			return nil, rangeError(name, off, n, size)
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
	}
	buf = buf[:n]
	if _, err := e.f.ReadAt(buf, off); err != nil {
		if size, serr := e.size(); serr == nil && !inRange(off, n, size) {
			return nil, rangeError(name, off, n, size)
		}
		return nil, fmt.Errorf("storage: read %s at %d+%d: %w", name, off, n, err)
	}
	if whole {
		s.dev.ReadSeq(n)
	} else {
		s.dev.ReadRand(n, 1)
	}
	return buf, nil
}

// ReadAll implements Store.
func (s *FileStore) ReadAll(name string) ([]byte, error) {
	return s.read(name, 0, 0, true, nil)
}

// ReadAllInto implements Store.
func (s *FileStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	return s.read(name, 0, 0, true, buf)
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(name string, off, n int64) ([]byte, error) {
	return s.read(name, off, n, false, nil)
}

// ReadAtInto implements Store.
func (s *FileStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	return s.read(name, off, n, false, buf)
}

// Size implements Store.
func (s *FileStore) Size(name string) (int64, error) {
	e, err := s.open(name)
	if err != nil {
		return 0, err
	}
	defer e.release()
	return e.size()
}

// Delete implements Store.
func (s *FileStore) Delete(name string) error {
	key, err := blobKey(name)
	if err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(s.root, key)); err != nil {
		return notFound(name, err)
	}
	s.fds.drop(key).release()
	return nil
}

// List implements Store.
func (s *FileStore) List() []string {
	var names []string
	_ = filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		// Skip in-flight (or crash-orphaned) atomic-Put temp files.
		if base := filepath.Base(path); strings.HasPrefix(base, ".") && strings.Contains(base, ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return nil
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(names)
	return names
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)
