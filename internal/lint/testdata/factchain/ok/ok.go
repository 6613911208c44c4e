// Fixture: the clean twin of the consumer — the same calls into dep, each
// made after the mutex is released, and the two mutexes only ever nested in
// one order. Must be silent.
package ok

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

// load reads first and takes errMu only to publish the outcome.
func (p *prefetcher) load(name string) {
	_, err := p.ld.LoadIndex(name)
	p.errMu.Lock()
	p.err = err
	p.errMu.Unlock()
}

func (p *prefetcher) wait(ch chan int) {
	v := dep.WaitForValue(ch)
	p.errMu.Lock()
	p.last = v
	p.errMu.Unlock()
}

func (p *prefetcher) underRegistry() {
	p.table.Mu.Lock()
	defer p.table.Mu.Unlock()
	p.errMu.Lock()
	p.last++
	p.errMu.Unlock()
}

// touch drops errMu before Touch takes Registry.Mu: never nested this way.
func (p *prefetcher) touch(k string) {
	p.errMu.Lock()
	p.last++
	p.errMu.Unlock()
	p.table.Touch(k)
}
