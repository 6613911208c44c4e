// Package dep is the dependency half of the cross-package fact fixture:
// every interesting behavior — a blocking receive, a storage.Store read
// five calls below the exported entry point, a mutex acquisition two calls
// down — lives here, invisible to a single-package analysis of the
// consumer. The consumer packages are analyzed with only this package's
// call summaries in hand.
package dep

import (
	"sync"

	"husgraph/internal/storage"
)

// WaitForValue parks on a plain receive; the block is only visible to the
// consumer through this function's fact.
func WaitForValue(ch chan int) int {
	return <-ch
}

// Loader has the shape of blockstore.DualStore's read path: the exported
// loader reaches the store through a retry layer, an attempt layer (one
// hop of it a function literal) and the read itself.
type Loader struct {
	Store   storage.Store
	Retries int
}

// LoadIndex is the entry point consumers call.
func (l *Loader) LoadIndex(name string) ([]byte, error) { return l.readTagged(name) }

func (l *Loader) readTagged(name string) ([]byte, error) { return l.withRetry(name) }

func (l *Loader) withRetry(name string) (b []byte, err error) {
	for i := 0; i <= l.Retries; i++ {
		if b, err = l.attempt(name); err == nil {
			break
		}
	}
	return b, err
}

func (l *Loader) attempt(name string) (b []byte, err error) {
	observed(func() { b, err = l.issue(name) })
	return b, err
}

func (l *Loader) issue(name string) ([]byte, error) { return l.Store.ReadAll(name) }

func observed(read func()) { read() }

// Registry guards a shared table with an exported mutex, so consumers can
// take it directly as well as through Touch.
type Registry struct {
	Mu    sync.Mutex
	items map[string]int
}

// Touch acquires Registry.Mu one call down — a fact consumers' lock-order
// analysis needs.
func (r *Registry) Touch(k string) { r.add(k) }

func (r *Registry) add(k string) {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.items == nil {
		r.items = make(map[string]int)
	}
	r.items[k]++
}
