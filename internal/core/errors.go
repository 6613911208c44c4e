package core

import "fmt"

// IterError wraps a failure inside one engine iteration with the context a
// caller needs to diagnose or branch on it structurally: which program,
// which iteration, and which update model was running. Callers classify the
// root cause with errors.Is against the storage sentinels
// (storage.ErrTransient/ErrPermanent/ErrCorrupt) and recover the iteration
// context with errors.As — never by matching the rendered message.
type IterError struct {
	Program string // Program.Name() of the failing run
	Iter    int    // iteration number, 0-based
	Model   Model  // update model active when the failure occurred
	Err     error  // underlying cause, chain preserved
}

func (e *IterError) Error() string {
	return fmt.Sprintf("core: %s iteration %d (%v): %v", e.Program, e.Iter, e.Model, e.Err)
}

func (e *IterError) Unwrap() error { return e.Err }
