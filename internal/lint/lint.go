// Package lint implements huslint, the project-invariant analyzer suite.
//
// Three of the project's contracts are conventions that go vet, -race and
// the goroutine-leak check cannot see, because breaking them changes no
// test's outcome: every byte of graph/block data flows through
// storage.Store (so CRC verification and fault injection are never
// bypassed — rawio), errors crossing the storage boundary are classified
// with the ErrTransient/ErrPermanent/ErrCorrupt sentinels and matched with
// errors.Is (errclass), and no mutex is held across a may-block call or
// taken in both orders (lockhold). Each analyzer in this package turns one
// of those conventions into a machine-checked invariant. The invariants a
// test run does expose — data races on stats, goroutines that outlive
// their owner, scratch used after its Put, loops that ignore their abort
// signal — are held by `go test -race` and internal/leaktest instead
// (DESIGN.md §5.3).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is built entirely on the standard library: packages are
// loaded via `go list -export -deps -test -json` and type-checked with
// go/parser + go/types against the compiler export data in the build cache,
// so the suite works with no module downloads (see load.go). lockhold sees
// through calls — including cross-package calls — via per-function call
// summaries computed in dependency order (see facts.go).
//
// Intentional exceptions are suppressed with a self-documenting comment:
//
//	//lint:ignore huslint/<name> <reason>
//
// Matching is position-keyed (see ignore.go): a trailing directive covers
// its own line only, a standalone directive covers the line below only.
// The reason is mandatory; a bare ignore is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check, in the style of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives
	// ("huslint/<name>").
	Name string
	// Doc is a one-paragraph description of the contract the analyzer
	// guards.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Path is the package's import path with any test-variant suffix
	// stripped (an in-package test variant is analyzed under its base
	// path, so path-based policy — e.g. the rawio storage exemption —
	// applies identically to test files).
	Path string
	// Fset maps token positions for every file of the package.
	Fset *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's facts about every expression.
	Info *types.Info
	// Facts holds the call summaries of this package and of every
	// dependency (see facts.go). Nil only when a caller runs an analyzer
	// without the summary pass; lockhold no-ops then.
	Facts *FactSet

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: an analyzer, a position, and a message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the go vet style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [huslint/%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{RawIO, ErrClass, LockHold}
}

// AnalyzerNames returns the names of the full suite.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}
