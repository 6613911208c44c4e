// Fixture: the consumer half of the cross-package fact test. Nothing in
// this file blocks, reads a store or locks a second mutex — every violation
// is only diagnosable through the dep package's call summaries.
package consumer

import (
	"sync"

	"husgraph/internal/lint/testdata/factchain/dep"
)

type prefetcher struct {
	errMu sync.Mutex
	err   error
	last  int
	ld    *dep.Loader
	table *dep.Registry
}

// loadUnderLock has the shape of a Prefetcher.load that publishes its
// error without first dropping the error mutex: errMu is held across a
// storage.Store read five calls down in another package. No test or race
// run notices; every Take stalls behind one slow read.
func (p *prefetcher) loadUnderLock(name string) {
	p.errMu.Lock()
	_, p.err = p.ld.LoadIndex(name) // want "storage I/O via (*dep.Loader).LoadIndex → (*dep.Loader).readTagged → (*dep.Loader).withRetry → (*dep.Loader).attempt → (*dep.Loader).attempt$lit1 → (*dep.Loader).issue while consumer.prefetcher.errMu is held"
	p.errMu.Unlock()
}

// blockUnderLock holds errMu across dep.WaitForValue, whose blocking
// receive is one package away.
func (p *prefetcher) blockUnderLock(ch chan int) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	p.last = dep.WaitForValue(ch) // want "chan-receive via dep.WaitForValue while"
}

// underRegistry fixes one order: Registry.Mu, then errMu.
func (p *prefetcher) underRegistry() {
	p.table.Mu.Lock()
	defer p.table.Mu.Unlock()
	p.errMu.Lock()
	p.last++
	p.errMu.Unlock()
}

// invertOrder takes them the other way around, and the second lock is only
// visible through Touch's summary: errMu here, Registry.Mu two calls down.
func (p *prefetcher) invertOrder(k string) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	p.table.Touch(k) // want "lock order inversion: consumer.prefetcher.errMu then dep.Registry.Mu here (via (*dep.Registry).Touch → (*dep.Registry).add)"
}
