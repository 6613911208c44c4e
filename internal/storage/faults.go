package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Error taxonomy for the storage path. Wrappers and substrates classify
// failures with these sentinels so upper layers can decide policy:
// transient errors are worth retrying, permanent errors are not, and
// corruption means the bytes came back but cannot be trusted.
var (
	// ErrTransient classifies I/O errors that may succeed when the same
	// operation is retried (controller hiccups, queue timeouts). The
	// block store's bounded-retry read paths retry exactly the errors
	// that wrap this sentinel.
	ErrTransient = errors.New("storage: transient I/O error")
	// ErrPermanent classifies failures retrying cannot fix (dead device,
	// unrecoverable sector). Surfaced to the caller immediately.
	ErrPermanent = errors.New("storage: permanent I/O error")
	// ErrCorrupt classifies reads that returned bytes failing integrity
	// verification (checksum mismatch, bad frame header, impossible
	// field). Data wrapped by this error must never be decoded further.
	ErrCorrupt = errors.New("storage: corrupt blob")
)

// FaultOp selects which store operations a Fault applies to.
type FaultOp int

const (
	// OpRead matches ReadAll, ReadAllInto, ReadAt and ReadAtInto.
	OpRead FaultOp = iota
	// OpWrite matches Put.
	OpWrite
)

// String names the operation class.
func (o FaultOp) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(o))
	}
}

// FaultKind selects what an injected fault does.
type FaultKind int

const (
	// FaultTransient fails the operation with an error wrapping
	// ErrTransient; a retry of the same operation consumes another
	// injection (or succeeds once the plan is exhausted).
	FaultTransient FaultKind = iota
	// FaultPermanent fails the operation with an error wrapping
	// ErrPermanent.
	FaultPermanent
	// FaultBitFlip silently flips one seeded-random bit: on reads in the
	// returned data, on writes in the stored data. The operation itself
	// reports success — the corruption is only observable through
	// checksums.
	FaultBitFlip
	// FaultTorn applies to writes only: a seeded-random strict prefix of
	// the data reaches the underlying store and the Put reports success —
	// the torn write a crash mid-os.WriteFile produces.
	FaultTorn
	// FaultDelay completes the operation successfully but only after
	// sleeping the plan's Delay — a congested controller or a device in
	// thermal throttle. The injected latency is the only observable effect.
	FaultDelay
	// FaultStall blocks the operation indefinitely — a hung request that
	// will never complete on its own. Stalled operations park until
	// ReleaseStalled is called (after which they complete healthily, like
	// a request finally drained from a wedged queue); deadline-bounded
	// readers are expected to time out and retry instead of waiting.
	FaultStall
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultBitFlip:
		return "bitflip"
	case FaultTorn:
		return "torn"
	case FaultDelay:
		return "delay"
	case FaultStall:
		return "stall"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one deterministic injection plan: after letting After matching
// operations through, inject Kind into the next Count matching operations
// (Count == 0 means every one from then on).
type Fault struct {
	// Op is the operation class this plan matches.
	Op FaultOp
	// Kind is the fault to inject.
	Kind FaultKind
	// Name, when non-empty, restricts the plan to blobs whose name
	// contains it as a substring (e.g. "ib/" for in-blocks, "aux/" for
	// checkpoints).
	Name string
	// After is the number of matching operations to let through before
	// the first injection.
	After int64
	// Count bounds the number of injections; 0 means unlimited.
	Count int64
	// Delay is the latency added by FaultDelay injections.
	Delay time.Duration
}

// FaultCounters reports what a FaultStore observed and injected.
type FaultCounters struct {
	// Reads and Writes count matching operations observed, healthy or
	// not.
	Reads, Writes int64
	// Transient, Permanent, BitFlips and TornWrites count injections
	// actually performed, by kind.
	Transient, Permanent, BitFlips, TornWrites int64
	// Delays and Stalls count latency and hang injections actually
	// performed. Both operations ultimately complete healthily, so these
	// never correlate with error counters.
	Delays, Stalls int64
}

// String summarizes the counters for logs.
func (c FaultCounters) String() string {
	return fmt.Sprintf("reads=%d writes=%d transient=%d permanent=%d bitflips=%d torn=%d delays=%d stalls=%d",
		c.Reads, c.Writes, c.Transient, c.Permanent, c.BitFlips, c.TornWrites, c.Delays, c.Stalls)
}

type faultPlan struct {
	Fault
	seen     int64
	injected int64
}

// FaultStore wraps a Store and injects deterministic, seeded faults
// according to the configured plans: transient and permanent read errors,
// bit-flip corruption, and torn writes. It is the failure-injection
// substrate for recovery tests and CLI demos — the same seed and plans
// always produce the same fault sequence under a deterministic workload.
//
// Plans are matched in the order they were added; the first eligible plan
// claims the operation. A FaultStore is safe for concurrent use, but
// which concurrent operation draws which injection is scheduling-defined;
// fully deterministic runs require a deterministic operation order.
type FaultStore struct {
	Store

	mu    sync.Mutex
	rng   *rand.Rand
	plans []*faultPlan
	c     FaultCounters

	// stall is the gate FaultStall operations park on; ReleaseStalled
	// closes it, after which stalls (past and future) pass straight
	// through. Lazily created so a plain error-injection store pays
	// nothing.
	stallMu sync.Mutex
	stall   chan struct{}
}

// NewFaultStore wraps s with a fault injector seeded for deterministic
// bit-flip positions and tear points. With no plans added it is a
// transparent pass-through.
func NewFaultStore(s Store, seed int64) *FaultStore {
	return &FaultStore{Store: s, rng: rand.New(rand.NewSource(seed))}
}

// Inject appends fault plans. Plans added earlier take precedence.
func (f *FaultStore) Inject(faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ft := range faults {
		cp := ft
		f.plans = append(f.plans, &faultPlan{Fault: cp})
	}
}

// Counters returns a snapshot of the operation and injection counters.
func (f *FaultStore) Counters() FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// injection is one decided fault: the kind, a seeded random value for
// bit/tear positions, and the sleep for FaultDelay.
type injection struct {
	kind  FaultKind
	r     int64
	delay time.Duration
}

// decide records one matching operation and returns the fault to inject,
// if any. Random draws (bit position, tear point) happen
// under the lock so the seeded sequence is stable per injection order.
func (f *FaultStore) decide(op FaultOp, name string) (injection, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == OpRead {
		f.c.Reads++
	} else {
		f.c.Writes++
	}
	for _, p := range f.plans {
		if p.Op != op || (p.Name != "" && !strings.Contains(name, p.Name)) {
			continue
		}
		p.seen++
		if p.seen <= p.After || (p.Count > 0 && p.injected >= p.Count) {
			continue
		}
		p.injected++
		inj := injection{kind: p.Kind, r: f.rng.Int63()}
		switch p.Kind {
		case FaultTransient:
			f.c.Transient++
		case FaultPermanent:
			f.c.Permanent++
		case FaultBitFlip:
			f.c.BitFlips++
		case FaultTorn:
			f.c.TornWrites++
		case FaultDelay:
			f.c.Delays++
			inj.delay = p.Delay
		case FaultStall:
			f.c.Stalls++
		}
		return inj, true
	}
	return injection{}, false
}

// stallGate returns the channel stalled operations block on.
func (f *FaultStore) stallGate() chan struct{} {
	f.stallMu.Lock()
	defer f.stallMu.Unlock()
	if f.stall == nil {
		f.stall = make(chan struct{})
	}
	return f.stall
}

// ReleaseStalled unblocks every operation parked by a FaultStall
// injection and turns any future stall injections into pass-throughs.
// Harnesses call it at teardown so timed-out read attempts can drain
// instead of leaking goroutines. It is idempotent.
func (f *FaultStore) ReleaseStalled() {
	f.stallMu.Lock()
	defer f.stallMu.Unlock()
	if f.stall == nil {
		f.stall = make(chan struct{})
	}
	select {
	case <-f.stall:
		// already released
	default:
		close(f.stall)
	}
}

// faultErr builds the injected error for failing kinds.
func faultErr(kind FaultKind, op FaultOp, name string) error {
	sentinel := ErrPermanent
	if kind == FaultTransient {
		sentinel = ErrTransient
	}
	return fmt.Errorf("storage: injected %s fault on %s %q: %w", kind, op, name, sentinel)
}

// flipBit flips one bit of data chosen by r; empty data is left alone.
func flipBit(data []byte, r int64) {
	if len(data) == 0 {
		return
	}
	bit := int(uint64(r) % uint64(len(data)*8))
	data[bit/8] ^= 1 << (bit % 8)
}

// hold applies the latency effect of a delay or stall injection; it must
// be called outside f.mu. Stalled operations park on the gate until
// ReleaseStalled, then proceed healthily.
func (f *FaultStore) hold(inj injection) {
	switch inj.kind {
	case FaultDelay:
		time.Sleep(inj.delay)
	case FaultStall:
		<-f.stallGate()
	}
}

// read runs one read subject to read-fault plans. The fault is decided
// and acted on before the inner store is reached: a failing fault
// (transient, permanent) returns its error there, so the inner store never
// serves — nor charges its device for — a read that fails; and a delay or
// stall holds the read first, so the inner store serves and charges it only
// once it is released. A faulted read is therefore charged alike whether the
// engine reads the substrate directly or through a shard's DeviceStore,
// which charges a read as its answer returns. A bit flip acts on the
// completed read; the returned buffer is owned by the caller in every Store
// implementation, so flipping in place is safe.
func (f *FaultStore) read(name string, do func() ([]byte, error)) ([]byte, error) {
	inj, ok := f.decide(OpRead, name)
	switch {
	case !ok:
	case inj.kind == FaultTransient || inj.kind == FaultPermanent:
		return nil, faultErr(inj.kind, OpRead, name)
	case inj.kind == FaultDelay || inj.kind == FaultStall:
		f.hold(inj)
	}
	data, err := do()
	if ok && inj.kind == FaultBitFlip && err == nil {
		flipBit(data, inj.r)
	}
	return data, err
}

// Put implements Store, subject to write-fault plans.
func (f *FaultStore) Put(name string, data []byte) error {
	inj, ok := f.decide(OpWrite, name)
	if !ok {
		return f.Store.Put(name, data)
	}
	kind, r := inj.kind, inj.r
	switch kind {
	case FaultTorn:
		n := 0
		if len(data) > 0 {
			n = int(uint64(r) % uint64(len(data))) // strict prefix: 0..len-1
		}
		if err := f.Store.Put(name, data[:n]); err != nil {
			return err
		}
		return nil // the writer believes the Put succeeded
	case FaultBitFlip:
		cp := append([]byte(nil), data...)
		flipBit(cp, r)
		return f.Store.Put(name, cp)
	case FaultDelay, FaultStall:
		f.hold(inj)
		return f.Store.Put(name, data)
	default:
		return faultErr(kind, OpWrite, name)
	}
}

// ReadAll implements Store, subject to read-fault plans.
func (f *FaultStore) ReadAll(name string) ([]byte, error) {
	return f.read(name, func() ([]byte, error) { return f.Store.ReadAll(name) })
}

// ReadAllInto implements Store, subject to read-fault plans.
func (f *FaultStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	return f.read(name, func() ([]byte, error) { return f.Store.ReadAllInto(name, buf) })
}

// ReadAt implements Store, subject to read-fault plans.
func (f *FaultStore) ReadAt(name string, off, n int64) ([]byte, error) {
	return f.read(name, func() ([]byte, error) { return f.Store.ReadAt(name, off, n) })
}

// ReadAtInto implements Store, subject to read-fault plans.
func (f *FaultStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	return f.read(name, func() ([]byte, error) { return f.Store.ReadAtInto(name, off, n, buf) })
}

var _ Store = (*FaultStore)(nil)
