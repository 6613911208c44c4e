package lint

import (
	"fmt"
	"sort"
	"time"
)

// AnalyzerTiming is one analyzer's total wall time across every analyzed
// package, printed by cmd/huslint -timing so the lint step's cost stays
// visible in CI.
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
}

// Result is a full run's findings plus its cost breakdown.
type Result struct {
	Diags []Diagnostic
	// LoadTime covers go list + parse + type-check; FactTime covers the
	// call-summary pass.
	LoadTime time.Duration
	FactTime time.Duration
	// Timings holds per-analyzer totals, in suite order.
	Timings []AnalyzerTiming
}

// RunPackage applies the analyzers to one loaded package and returns its
// final diagnostics: analyzer findings minus suppressions, plus one
// diagnostic per malformed suppression directive.
//
// facts must already contain the package's dependencies; when nil, a fresh
// fact set is built from this package alone (the fixture-test convenience —
// lockhold then sees only intra-package facts).
func RunPackage(pkg *Package, analyzers []*Analyzer, facts *FactSet) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactSet()
	}
	facts.Summarize(pkg)
	diags, _, err := runAnalyzers(pkg, analyzers, facts)
	return diags, err
}

// runAnalyzers applies the analyzers to one package whose facts (and its
// dependencies') are already installed in facts.
func runAnalyzers(pkg *Package, analyzers []*Analyzer, facts *FactSet) ([]Diagnostic, []AnalyzerTiming, error) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name, Duration: time.Since(start)})
	}
	return applyDirectives(diags, parseDirectives(pkg, known)), timings, nil
}

// Run loads the packages matching patterns (test files included),
// computes call summaries in dependency order, and applies the
// analyzers. Diagnostics are deduplicated — a file analyzed both in a
// package and in its test variant reports once — and sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) (*Result, error) {
	loadStart := time.Now()
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{LoadTime: time.Since(loadStart)}

	// Facts must exist for a package's dependencies before the package is
	// summarized, so order the targets topologically by import edges
	// (restricted to the analyzed set; Load's output is name-sorted, which
	// keeps the topological order deterministic).
	ordered := topoOrder(pkgs)

	factStart := time.Now()
	facts := NewFactSet()
	for _, pkg := range ordered {
		facts.Summarize(pkg)
	}
	res.FactTime = time.Since(factStart)

	totals := make(map[string]time.Duration)
	seen := make(map[string]bool)
	for _, pkg := range ordered {
		diags, timings, err := runAnalyzers(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		for _, t := range timings {
			totals[t.Name] += t.Duration
		}
		for _, d := range diags {
			key := fmt.Sprintf("%s|%s:%d:%d|%s", d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Diags = append(res.Diags, d)
		}
	}
	for _, a := range analyzers {
		res.Timings = append(res.Timings, AnalyzerTiming{Name: a.Name, Duration: totals[a.Name]})
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// topoOrder sorts packages so every package follows its analyzed
// dependencies (stable for unrelated packages; cycles cannot occur in Go
// imports).
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var out []*Package
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.Path] {
		case 1, 2:
			return
		}
		state[p.Path] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
