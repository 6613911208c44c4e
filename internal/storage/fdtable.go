package storage

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// Bounds on a FileStore's open read descriptors. The table takes a quarter
// of the process's RLIMIT_NOFILE — a run may hold two stores (a build and
// its reopen) beside its own files — clamped so a tiny limit still caches a
// P = 4 store and a huge one does not pin more kernel memory than the
// 16 k blobs of a P = 64 store need.
const (
	minOpenBlobs = 64
	maxOpenBlobs = 1 << 14
)

// openBlobLimit derives the table's bound from RLIMIT_NOFILE.
func openBlobLimit() int {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return minOpenBlobs
	}
	return int(min(max(rl.Cur/4, minOpenBlobs), maxOpenBlobs))
}

// fdEntry is one blob opened for reading. Its descriptor stays open while
// refs > 0: the table holds one reference for as long as the entry is in
// it, and every reader holds one from acquire to release. So eviction, Put,
// Delete and Close never close a descriptor under a read — they drop the
// table's reference and the last reader out closes — and the raw descriptor
// number is only ever used by a holder of a reference.
type fdEntry struct {
	key        string // cleaned blob name
	f          *os.File
	fd         int // f's descriptor, for the allocation-free fstat in size
	refs       atomic.Int32
	prev, next *fdEntry // LRU links, guarded by fdTable.mu
}

// newFDEntry wraps a file just opened for key, holding the opener's
// reference.
func newFDEntry(key string, f *os.File) *fdEntry {
	e := &fdEntry{key: key, f: f, fd: int(f.Fd())}
	e.refs.Store(1)
	return e
}

// size returns the blob's current length. It asks the descriptor on every
// call, so a blob truncated in place behind the store reads as what it is
// now, not as what it was when first opened. FileStore.read calls it before
// a whole read, before growing a buffer, and after a range read that came
// back short — not on a range read that fits its buffer and succeeds.
func (e *fdEntry) size() (int64, error) {
	var st syscall.Stat_t
	for {
		err := syscall.Fstat(e.fd, &st)
		if err == nil {
			return st.Size, nil
		}
		if err != syscall.EINTR {
			return 0, err
		}
	}
}

// release drops one reference and closes the descriptor with the last.
// Never call it with fdTable.mu held: close is a syscall.
func (e *fdEntry) release() {
	if e != nil && e.refs.Add(-1) == 0 {
		e.f.Close() // read-only descriptor: nothing to flush, nothing to report
	}
}

// unlink takes e out of the LRU list; the caller holds fdTable.mu.
func (e *fdEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// fdTable is FileStore's bounded, LRU-evicted set of open read descriptors,
// keyed by cleaned blob name. No method opens or closes a file: callers do
// that outside the lock with what the methods hand back.
type fdTable struct {
	mu      sync.Mutex
	limit   int
	entries map[string]*fdEntry
	lru     fdEntry // list sentinel: lru.next is the most recently used
	// gen counts drops. A reader that missed opens its file unlocked, so
	// by the time it inserts, a Put may have renamed a new inode into place
	// and dropped the name: inserting then would cache the old contents
	// for good. insert therefore refuses when gen moved since the miss.
	gen uint64
}

func newFDTable(limit int) *fdTable {
	t := &fdTable{limit: limit, entries: make(map[string]*fdEntry)}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

func (t *fdTable) pushFront(e *fdEntry) {
	e.prev, e.next = &t.lru, t.lru.next
	e.prev.next, e.next.prev = e, e
}

// acquire returns key's entry with a reference taken for the caller, or nil
// and the generation to pass to insert once the caller has opened the file.
func (t *fdTable) acquire(key string) (*fdEntry, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e != nil {
		e.refs.Add(1)
		e.unlink()
		t.pushFront(e)
	}
	return e, t.gen
}

// insert puts e — opened after a miss that saw generation gen — into the
// table, unless a drop or another reader's insert got there first; e then
// stays private to its reader, whose release closes it. The return value is
// the entry evicted to make room, for the caller to release.
func (t *fdTable) insert(e *fdEntry, gen uint64) (evicted *fdEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen != gen || t.entries[e.key] != nil {
		return nil
	}
	e.refs.Add(1)
	t.entries[e.key] = e
	t.pushFront(e)
	if len(t.entries) > t.limit {
		evicted = t.lru.prev
		evicted.unlink()
		delete(t.entries, evicted.key)
	}
	return evicted
}

// drop removes key after its file was replaced or removed and returns the
// entry, if there was one, for the caller to release.
func (t *fdTable) drop(key string) *fdEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	e := t.entries[key]
	if e != nil {
		e.unlink()
		delete(t.entries, key)
	}
	return e
}

// dropAll empties the table and returns what it held.
func (t *fdTable) dropAll() []*fdEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	all := make([]*fdEntry, 0, len(t.entries))
	for _, e := range t.entries {
		all = append(all, e)
	}
	clear(t.entries)
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return all
}
