package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Call summaries for lockhold.
//
// A pass over each package computes a FuncFact for every function
// (declarations and function literals alike): which functions it calls,
// which ways it may block (channel operations, WaitGroup.Wait, time.Sleep,
// I/O through storage.Store) and which mutexes it acquires — its own and,
// after propagation along the call edges, its callees'. When lockhold meets
// a call with a mutex held it looks the callee's summary up in the FactSet
// instead of giving up at the function or package boundary, so "storage I/O
// five calls down, two packages away" is reported at the call that holds
// the lock, with the chain that reaches it.
//
// Packages are summarized in import-dependency order (a package's
// dependencies are complete before it is analyzed) with an intra-package
// fixpoint for mutual recursion. Calls through function values and
// interface methods other than the storage.Store intrinsics are edges the
// pass cannot resolve; a summary is therefore sound-effort, not a proof.

// BlockKind classifies one way a function may block.
type BlockKind string

// The block kinds.
const (
	// BlockRecv is a plain channel receive (including range-over-channel)
	// outside any select.
	BlockRecv BlockKind = "chan-receive"
	// BlockSend is a plain channel send outside any select.
	BlockSend BlockKind = "chan-send"
	// BlockSelect is a select with neither a default nor an abort case.
	BlockSelect BlockKind = "select"
	// BlockWait is sync.WaitGroup.Wait or sync.Cond.Wait.
	BlockWait BlockKind = "WaitGroup.Wait"
	// BlockSleep is time.Sleep.
	BlockSleep BlockKind = "time.Sleep"
	// BlockIO is I/O through storage.Store (or a direct os file call in
	// the packages allowed to make one).
	BlockIO BlockKind = "storage I/O"
)

// BlockFact records one way a function may block: the kind and — when the
// block is reached through callees — the call chain that reaches it.
type BlockFact struct {
	Kind BlockKind
	Via  string
}

// MutexAcq records one mutex a function acquires: the mutex's program-wide
// key (see mutexKeyOf) and the call chain through which it is taken.
type MutexAcq struct {
	Mutex string
	Via   string
}

// FuncFact is the summary of one function.
type FuncFact struct {
	// Calls lists the fact keys of statically-resolved callees (deferred
	// calls and function literals passed to or invoked by this function
	// included; go statements excluded — the spawner does not wait).
	Calls []string
	// Blocks lists the ways the function may block, here or in a callee,
	// deduplicated by kind (the first chain found wins).
	Blocks []BlockFact
	// Acquires lists the mutexes the function locks, here or in a callee,
	// deduplicated by mutex key.
	Acquires []MutexAcq
}

// FactSet holds the summaries of every package analyzed so far, plus the
// program-wide mutex acquisition-order graph lockhold feeds as it walks the
// packages in dependency order.
type FactSet struct {
	// index maps fact keys (types.Func FullName, or "<enclosing>$litN" for
	// function literals) to their facts.
	index map[string]*FuncFact

	lockPairs    map[[2]string]string // (first, second) -> first site observed
	pairReported map[[2]string]bool
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{
		index:        make(map[string]*FuncFact),
		lockPairs:    make(map[[2]string]string),
		pairReported: make(map[[2]string]bool),
	}
}

// Fact returns the fact for key, or nil when the function was never
// summarized (dynamic call target, or a package outside the analyzed set).
func (fs *FactSet) Fact(key string) *FuncFact { return fs.index[key] }

// recordLockPair adds the edge first→second (observed at site) to the
// acquisition-order graph. When the reverse edge already exists, it
// returns that edge's site and true — exactly once per unordered pair.
func (fs *FactSet) recordLockPair(first, second, at string) (prevSite string, inverted bool) {
	key := [2]string{first, second}
	if _, ok := fs.lockPairs[key]; !ok {
		fs.lockPairs[key] = at
	}
	rev := [2]string{second, first}
	prev, ok := fs.lockPairs[rev]
	if !ok {
		return "", false
	}
	// Canonical unordered key so the inversion is reported once.
	unordered := key
	if second < first {
		unordered = rev
	}
	if fs.pairReported[unordered] {
		return "", false
	}
	fs.pairReported[unordered] = true
	return prev, true
}

// funcKey returns the program-wide fact key of a resolved function: its
// types.Func FullName ("pkg.Fn" or "(*pkg.T).Method").
func funcKey(f *types.Func) string {
	if f == nil {
		return ""
	}
	return f.FullName()
}

// pathPrefixRE matches import-path prefixes inside a fact key, so
// diagnostics can shorten "(*husgraph/internal/blockstore.Prefetcher).Take"
// to "(*blockstore.Prefetcher).Take".
var pathPrefixRE = regexp.MustCompile(`([A-Za-z0-9_.~-]+/)+`)

// shortKey renders a fact key for diagnostics.
func shortKey(k string) string { return pathPrefixRE.ReplaceAllString(k, "") }

// viaChain prefixes a callee's own chain with the callee: the Via of a fact
// inherited through a call to key.
func viaChain(key, via string) string {
	if via == "" {
		return shortKey(key)
	}
	return shortKey(key) + " → " + via
}

// factBuilder computes one package's facts into fs.
type factBuilder struct {
	pkg  *Package
	fs   *FactSet
	keys []string // the package's own fact keys
	// litKeys maps function-literal nodes to their synthetic keys, so a
	// literal invoked or passed as an argument is a call edge like any other.
	litKeys map[*ast.FuncLit]string
}

// Summarize computes pkg's facts and installs them in fs, which must already
// hold those of pkg's dependencies: packages are summarized in dependency
// order.
func (fs *FactSet) Summarize(pkg *Package) {
	b := &factBuilder{pkg: pkg, fs: fs, litKeys: make(map[*ast.FuncLit]string)}
	for _, file := range pkg.Files {
		b.collectFuncs(file)
	}
	b.fixpoint()
}

// collectFuncs walks one file, assigning keys to every function
// declaration and literal and extracting their direct facts.
func (b *factBuilder) collectFuncs(file *ast.File) {
	// Literal keys are "<enclosing>$litN" in lexical order per enclosing
	// function, so they are deterministic across loads. Inner functions are
	// keyed before the enclosing body is extracted, which is what lets
	// extract resolve the literals it meets.
	var stack []string // enclosing fact keys
	litCount := make(map[string]int)
	var walk func(n ast.Node) bool
	visit := func(key string, body *ast.BlockStmt) {
		stack = append(stack, key)
		ast.Inspect(body, walk)
		stack = stack[:len(stack)-1]
		b.extract(key, body)
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			f, _ := b.pkg.Info.Defs[n.Name].(*types.Func)
			key := funcKey(f)
			if key == "" {
				key = b.pkg.Path + "." + n.Name.Name
			}
			visit(key, n.Body)
			return false
		case *ast.FuncLit:
			encl := b.pkg.Path
			if len(stack) > 0 {
				encl = stack[len(stack)-1]
			}
			litCount[encl]++
			key := fmt.Sprintf("%s$lit%d", encl, litCount[encl])
			b.litKeys[n] = key
			visit(key, n.Body)
			return false
		}
		return true
	}
	for _, decl := range file.Decls {
		ast.Inspect(decl, walk)
	}
}

// extract computes the direct facts of one function body.
func (b *factBuilder) extract(key string, body *ast.BlockStmt) {
	f := &FuncFact{}
	b.fs.index[key] = f
	b.keys = append(b.keys, key)
	info := b.pkg.Info
	inSelect := selectComms(body)
	// A go statement's call expression is the spawn target, not a call the
	// spawner waits for — its facts must not propagate into the spawner.
	goCalls := make(map[*ast.CallExpr]bool)
	block := func(k BlockKind) { f.Blocks = addBlock(f.Blocks, BlockFact{Kind: k}) }

	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true // args may still contain calls; keep walking
		case *ast.CallExpr:
			if !goCalls[n] {
				b.extractCall(key, f, n)
			}
		case *ast.SendStmt:
			if !inSelect[n] {
				block(BlockSend)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSelect[n] && !isAbortChan(info, n.X) {
				block(BlockRecv)
			}
		case *ast.SelectStmt:
			if hasDefault, hasAbort := classifySelect(info, n); !hasDefault && !hasAbort {
				block(BlockSelect)
			}
		case *ast.RangeStmt:
			// Ranging over a channel parks until the channel closes.
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					block(BlockRecv)
				}
			}
		}
		return true
	})
}

// extractCall records the fact consequences of one call expression.
func (b *factBuilder) extractCall(key string, f *FuncFact, call *ast.CallExpr) {
	addCall := func(k string) {
		if k == "" || k == key {
			return
		}
		for _, c := range f.Calls {
			if c == k {
				return
			}
		}
		f.Calls = append(f.Calls, k)
	}
	// A function literal invoked or passed anywhere is assumed to run.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		addCall(b.litKeys[lit])
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			addCall(b.litKeys[lit])
		}
	}
	callee := calleeOf(b.pkg.Info, call)
	if callee == nil {
		return
	}
	switch {
	case isPkgFunc(callee, "time", "Sleep"):
		f.Blocks = addBlock(f.Blocks, BlockFact{Kind: BlockSleep})
	case isMethodOn(callee, "sync", "WaitGroup", "Wait"), isMethodOn(callee, "sync", "Cond", "Wait"):
		f.Blocks = addBlock(f.Blocks, BlockFact{Kind: BlockWait})
	case isMutexAcquire(callee):
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if mk := mutexKeyOf(b.pkg.Info, sel.X); mk != "" {
				f.Acquires = addAcq(f.Acquires, MutexAcq{Mutex: mk})
			}
		}
	case isStoreIntrinsic(callee):
		f.Blocks = addBlock(f.Blocks, BlockFact{Kind: BlockIO})
	default:
		addCall(funcKey(callee))
	}
}

// fixpoint propagates facts along call edges until stable: dependency
// facts are already complete, so only intra-package cycles iterate.
func (b *factBuilder) fixpoint() {
	sort.Strings(b.keys)
	for changed := true; changed; {
		changed = false
		for _, k := range b.keys {
			f := b.fs.index[k]
			for _, ck := range f.Calls {
				cf := b.fs.index[ck]
				if cf == nil {
					continue
				}
				for _, bf := range cf.Blocks {
					if n := addBlock(f.Blocks, BlockFact{Kind: bf.Kind, Via: viaChain(ck, bf.Via)}); len(n) != len(f.Blocks) {
						f.Blocks, changed = n, true
					}
				}
				for _, acq := range cf.Acquires {
					if n := addAcq(f.Acquires, MutexAcq{Mutex: acq.Mutex, Via: viaChain(ck, acq.Via)}); len(n) != len(f.Acquires) {
						f.Acquires, changed = n, true
					}
				}
			}
		}
	}
}

func addBlock(list []BlockFact, b BlockFact) []BlockFact {
	for _, e := range list {
		if e.Kind == b.Kind {
			return list
		}
	}
	return append(list, b)
}

func addAcq(list []MutexAcq, a MutexAcq) []MutexAcq {
	for _, e := range list {
		if e.Mutex == a.Mutex {
			return list
		}
	}
	return append(list, a)
}

// isMutexAcquire reports a sync.Mutex.Lock / sync.RWMutex.Lock/RLock call.
func isMutexAcquire(f *types.Func) bool {
	return isMethodOn(f, "sync", "Mutex", "Lock") ||
		isMethodOn(f, "sync", "RWMutex", "Lock") ||
		isMethodOn(f, "sync", "RWMutex", "RLock")
}

// isMutexRelease reports the matching Unlock calls.
func isMutexRelease(f *types.Func) bool {
	return isMethodOn(f, "sync", "Mutex", "Unlock") ||
		isMethodOn(f, "sync", "RWMutex", "Unlock") ||
		isMethodOn(f, "sync", "RWMutex", "RUnlock")
}

// storePkgSuffix identifies the storage package across module layouts
// (fixtures use their own paths).
const storePkgSuffix = "internal/storage"

// isStoreIntrinsic reports a call that performs managed I/O: a method on
// the storage.Store interface, or a direct os/io file call (only the
// packages exempt from rawio make those legally).
func isStoreIntrinsic(f *types.Func) bool {
	if f.Pkg() != nil && rawIOForbidden[f.Pkg().Path()][f.Name()] {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := sig.Recv().Type().(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), storePkgSuffix) && obj.Name() == "Store"
}

// mutexKeyOf returns a program-wide identity key for a mutex expression:
// "<pkg>.<Type>.<field>" for struct fields, "<pkg>.<var>" for package-level
// variables, "" for anything whose identity cannot be named across
// functions (locals, map elements).
func mutexKeyOf(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if fld := fieldOf(info, e); fld != nil {
			if owner := fieldOwner(fld); owner != "" {
				return owner + "." + fld.Name()
			}
			return ""
		}
		id = e.Sel // qualified package-level var: pkg.Mu
	case *ast.Ident:
		id = e
	default:
		return ""
	}
	if obj, ok := objOf(info, id).(*types.Var); ok && !obj.IsField() && obj.Pkg() != nil &&
		obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// fieldOwner returns "<pkg>.<Type>" for a struct field object, or "".
func fieldOwner(fld *types.Var) string {
	if !fld.IsField() || fld.Pkg() == nil {
		return ""
	}
	// The field's originating named type is not directly reachable from
	// the Var; scan the package scope for the struct that declares it.
	scope := fld.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return fld.Pkg().Path() + "." + tn.Name()
			}
		}
	}
	return ""
}

// isAbortChan reports whether e denotes an abort signal: an abort-named
// channel (variable or field) or a ctx.Done() call.
func isAbortChan(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return isMethodOn(calleeOf(info, call), "context", "Context", "Done")
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || !isRecvChan(tv.Type) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return abortNameRE.MatchString(e.Name)
	case *ast.SelectorExpr:
		return abortNameRE.MatchString(e.Sel.Name)
	}
	return false
}

// commRecv returns the receive expression of a select comm clause's
// statement (`<-ch`, `v := <-ch`, `v, ok = <-ch`), or nil for a send.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	var x ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		x = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			x = c.Rhs[0]
		}
	}
	if x == nil {
		return nil
	}
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// classifySelect reports whether a select has a default clause, and
// whether any case covers an abort signal.
func classifySelect(info *types.Info, sel *ast.SelectStmt) (hasDefault, hasAbort bool) {
	for _, cl := range sel.Body.List {
		comm := cl.(*ast.CommClause).Comm
		if comm == nil {
			hasDefault = true
		} else if u := commRecv(comm); u != nil && isAbortChan(info, u.X) {
			hasAbort = true
		}
	}
	return
}

// selectComms marks the channel operations of body that are comm clauses of
// a select: they are classified with the select, not on their own.
func selectComms(body ast.Node) map[ast.Node]bool {
	inSelect := make(map[ast.Node]bool)
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			switch comm := cl.(*ast.CommClause).Comm.(type) {
			case nil:
			case *ast.SendStmt:
				inSelect[comm] = true
			default:
				if u := commRecv(comm); u != nil {
					inSelect[u] = true
				}
			}
		}
		return true
	})
	return inSelect
}
