package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold enforces two lock-discipline rules over the cross-package fact
// system:
//
//	R1: no mutex may be held across a may-block operation — a plain
//	    channel send/receive (outside a select with an abort case),
//	    storage.Store I/O, time.Sleep, WaitGroup.Wait, or a call whose
//	    fact says it does any of those. Blocking under a lock turns an
//	    I/O stall into a pile-up of every goroutine that touches the
//	    mutex: one slow read wedges the run, and no deadline or retry
//	    reaches the goroutines waiting on the lock.
//	R2: two mutexes observed nested in both orders (A then B here, B then
//	    A elsewhere — in any package, through any summarized call chain)
//	    are a deadlock waiting for the right schedule; the analyzer keeps
//	    a program-wide acquisition-order graph and flags the inversion at
//	    the second site.
//
// Held-set tracking is linear per function with branch isolation (a
// branch's lock/unlock effects don't leak past the branch), and a mutex
// released by a deferred Unlock counts as held to the end of the
// function. Only mutexes with a program-wide identity — struct fields and
// package-level variables — participate; locals are invisible.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "no mutex held across a may-block call (chan ops outside select-with-abort, " +
		"storage.Store I/O, time.Sleep, Wait), and no pair of mutexes acquired in both " +
		"orders anywhere in the program",
	Run: runLockHold,
}

// lockSite remembers where a held mutex was acquired.
type lockSite struct {
	at token.Pos
}

func runLockHold(pass *Pass) error {
	if pass.Facts == nil {
		return nil
	}
	for _, file := range pass.Files {
		funcBodies(file, pass.Info, func(_ *types.Func, _ *ast.FuncType, body *ast.BlockStmt) {
			w := &lockWalker{pass: pass}
			w.stmts(body.List, map[string]lockSite{})
		})
	}
	return nil
}

// lockWalker walks one function's statements in order, tracking held
// mutexes.
type lockWalker struct {
	pass *Pass
}

// stmts processes a statement list sequentially, mutating held.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]lockSite) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func cloneHeld(held map[string]lockSite) map[string]lockSite {
	c := make(map[string]lockSite, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]lockSite) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprOps(s.Cond, held)
		w.stmt(s.Body, cloneHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprOps(s.Cond, held)
		w.stmt(s.Body, cloneHeld(held))
	case *ast.RangeStmt:
		w.exprOps(s.X, held)
		w.stmt(s.Body, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprOps(s.Tag, held)
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.SelectStmt:
		// The select's own blocking character is judged as one op; its
		// case bodies run after the communication completes.
		w.selectOp(s, held)
		for _, cl := range s.Body.List {
			w.stmts(cl.(*ast.CommClause).Body, cloneHeld(held))
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to the end of the
		// function (which the linear walk models by simply not removing
		// it); other deferred calls run outside this statement order.
	case *ast.GoStmt:
		// Spawning never blocks; holding a lock across a go statement is
		// fine. Argument evaluation may still receive from channels.
		for _, arg := range s.Call.Args {
			w.exprOps(arg, held)
		}
	default:
		// Simple statements: scan for channel ops and calls in evaluation
		// order (approximated by syntax order).
		w.exprOps(s, held)
	}
}

// exprOps scans a simple statement or expression for lock transitions,
// blocking operations and calls, without descending into function
// literals.
func (w *lockWalker) exprOps(n ast.Node, held map[string]lockSite) {
	if n == nil {
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			w.call(m, held)
		case *ast.SendStmt:
			w.blockOp(m.Pos(), BlockSend, "", held)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !isAbortChan(w.pass.Info, m.X) {
				w.blockOp(m.Pos(), BlockRecv, "", held)
			}
		}
		return true
	})
}

// selectOp judges a select statement as a blocking op while locks are
// held: a select with a default or an abort case has an escape hatch.
func (w *lockWalker) selectOp(sel *ast.SelectStmt, held map[string]lockSite) {
	hasDefault, hasAbort := classifySelect(w.pass.Info, sel)
	if !hasDefault && !hasAbort {
		w.blockOp(sel.Pos(), BlockSelect, "", held)
	}
}

// call handles one call expression: lock/unlock transitions, blocking
// intrinsics, and summarized callees.
func (w *lockWalker) call(call *ast.CallExpr, held map[string]lockSite) {
	callee := calleeOf(w.pass.Info, call)
	if callee == nil {
		return
	}
	switch {
	case isMutexAcquire(callee):
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := mutexKeyOf(w.pass.Info, sel.X); key != "" {
				w.recordOrder(held, key, "", call.Pos())
				held[key] = lockSite{at: call.Pos()}
			}
		}
	case isMutexRelease(callee):
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := mutexKeyOf(w.pass.Info, sel.X); key != "" {
				delete(held, key)
			}
		}
	case isPkgFunc(callee, "time", "Sleep"):
		w.blockOp(call.Pos(), BlockSleep, "", held)
	case isMethodOn(callee, "sync", "WaitGroup", "Wait"), isMethodOn(callee, "sync", "Cond", "Wait"):
		w.blockOp(call.Pos(), BlockWait, "", held)
	case isStoreIntrinsic(callee):
		w.blockOp(call.Pos(), BlockIO, "", held)
	default:
		key := funcKey(callee)
		f := w.pass.Facts.Fact(key)
		if f == nil {
			return
		}
		for _, b := range f.Blocks {
			w.blockOp(call.Pos(), b.Kind, viaChain(key, b.Via), held)
		}
		// The callee's transitive acquisitions extend the order graph
		// under every lock currently held.
		for _, acq := range f.Acquires {
			w.recordOrder(held, acq.Mutex, viaChain(key, acq.Via), call.Pos())
		}
	}
}

// blockOp reports every held mutex at a may-block operation.
func (w *lockWalker) blockOp(pos token.Pos, kind BlockKind, via string, held map[string]lockSite) {
	for key, site := range held {
		desc := string(kind)
		if via != "" {
			desc += " via " + via
		}
		w.pass.Reportf(pos,
			"%s while %s is held (locked at %s); a stall here blocks every goroutine touching the mutex — release it before the %s",
			desc, shortKey(key), w.pass.Fset.Position(site.at), kind)
	}
}

// recordOrder adds held→next edges to the program-wide acquisition-order
// graph and reports when the reverse edge already exists. via is the call
// chain through which next is taken, "" for a Lock in this function.
func (w *lockWalker) recordOrder(held map[string]lockSite, next, via string, at token.Pos) {
	if via != "" {
		via = " (via " + via + ")"
	}
	for h := range held {
		if h == next {
			continue // re-acquisition patterns are out of scope
		}
		if prev, inverted := w.pass.Facts.recordLockPair(h, next, w.pass.Fset.Position(at).String()); inverted {
			w.pass.Reportf(at,
				"lock order inversion: %s then %s here%s, but %s then %s at %s; two goroutines taking these in opposite orders deadlock",
				shortKey(h), shortKey(next), via, shortKey(next), shortKey(h), prev)
		}
	}
}
