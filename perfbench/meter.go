package main

import (
	"sync"
	"sync/atomic"
	"time"

	"husgraph/internal/storage"
)

// tracer collects spans in memory; they are written out once, at exit.
// Harness-side spans (the calls into core, ioplan, ...) are opened and
// closed on one goroutine, so "the span that caused it" for a storage call
// made by any engine thread is whichever harness span is open.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	open   atomic.Int64 // index of the innermost open harness span, -1 if none
	rep    atomic.Int64
}

func newTracer(origin time.Time) *tracer {
	t := &tracer{origin: origin}
	t.open.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a harness span under the currently open one and returns its
// index; pair with end.
func (t *tracer) begin(name string) int {
	parent := int(t.open.Load())
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Rep: int(t.rep.Load())})
	t.mu.Unlock()
	t.open.Store(int64(id))
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	parent := t.spans[id].Parent
	t.mu.Unlock()
	t.open.Store(int64(parent))
}

// leaf records a completed storage call under the open harness span.
func (t *tracer) leaf(name string, start, end int64) {
	parent := int(t.open.Load())
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Rep: int(t.rep.Load())})
	t.mu.Unlock()
}

// meterStore is the harness's storage.Store decorator: it counts every
// call from outside the layers. With timed set it also accumulates busy
// time, and with a tracer (which shares its origin) it records one span per
// call; the harness flips both between phases, never while the engine runs.
// The methods are written out one by one, without closures, so that the
// decorator adds no allocations to the allocs_per_iter it helps measure.
type meterStore struct {
	storage.Store
	timed  bool
	tr     *tracer
	origin time.Time

	seqOps, randOps, readBytes, readErrs atomic.Int64
	putOps, putBytes                     atomic.Int64
	readBusy, putBusy                    atomic.Int64 // ns
}

func newMeterStore(inner storage.Store) *meterStore {
	return &meterStore{Store: inner, origin: time.Now()}
}

// storeCounts is a snapshot of a meterStore's counters.
type storeCounts struct {
	seqOps, randOps, readBytes, readErrs, putOps, putBytes int64
	readBusy, putBusy                                      time.Duration
}

func (m *meterStore) counts() storeCounts {
	return storeCounts{
		seqOps: m.seqOps.Load(), randOps: m.randOps.Load(), readBytes: m.readBytes.Load(), readErrs: m.readErrs.Load(),
		putOps: m.putOps.Load(), putBytes: m.putBytes.Load(),
		readBusy: time.Duration(m.readBusy.Load()), putBusy: time.Duration(m.putBusy.Load()),
	}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		seqOps: a.seqOps - b.seqOps, randOps: a.randOps - b.randOps, readBytes: a.readBytes - b.readBytes, readErrs: a.readErrs - b.readErrs,
		putOps: a.putOps - b.putOps, putBytes: a.putBytes - b.putBytes,
		readBusy: a.readBusy - b.readBusy, putBusy: a.putBusy - b.putBusy,
	}
}

func (c storeCounts) readOps() int64 { return c.seqOps + c.randOps }

func (m *meterStore) stamp() int64 {
	if !m.timed {
		return 0
	}
	return int64(time.Since(m.origin))
}

func (m *meterStore) doneRead(span string, ops *atomic.Int64, start int64, n int, err error) {
	if m.timed {
		end := m.stamp()
		m.readBusy.Add(end - start)
		if m.tr != nil {
			m.tr.leaf(span, start, end)
		}
	}
	ops.Add(1)
	if err != nil {
		m.readErrs.Add(1)
		return
	}
	m.readBytes.Add(int64(n))
}

func (m *meterStore) ReadAll(name string) ([]byte, error) {
	start := m.stamp()
	b, err := m.Store.ReadAll(name)
	m.doneRead("storage.read_all", &m.seqOps, start, len(b), err)
	return b, err
}

func (m *meterStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	start := m.stamp()
	b, err := m.Store.ReadAllInto(name, buf)
	m.doneRead("storage.read_all", &m.seqOps, start, len(b), err)
	return b, err
}

func (m *meterStore) ReadAt(name string, off, n int64) ([]byte, error) {
	start := m.stamp()
	b, err := m.Store.ReadAt(name, off, n)
	m.doneRead("storage.read_at", &m.randOps, start, len(b), err)
	return b, err
}

func (m *meterStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	start := m.stamp()
	b, err := m.Store.ReadAtInto(name, off, n, buf)
	m.doneRead("storage.read_at", &m.randOps, start, len(b), err)
	return b, err
}

func (m *meterStore) Put(name string, data []byte) error {
	start := m.stamp()
	err := m.Store.Put(name, data)
	m.putBusy.Add(m.stamp() - start)
	m.putOps.Add(1)
	if err == nil {
		m.putBytes.Add(int64(len(data)))
	}
	return err
}
