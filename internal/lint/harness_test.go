package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture harness: each analyzer runs over a package under testdata/ and its
// diagnostics are matched against `// want "substring"` comments in the
// sources — every want must be hit by a diagnostic on its line, and every
// diagnostic must be claimed by a want.

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func loadFixture(t *testing.T, sub, pkgPath string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", sub), pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func checkFixture(t *testing.T, a *Analyzer, sub, pkgPath string) {
	t.Helper()
	checkFixtureFull(t, []*Analyzer{a}, sub, pkgPath, nil)
}

// checkFixtureFull is checkFixture with an explicit analyzer set and an
// optional pre-seeded fact set (for cross-package fixtures).
func checkFixtureFull(t *testing.T, as []*Analyzer, sub, pkgPath string, facts *FactSet) {
	t.Helper()
	pkg := loadFixture(t, sub, pkgPath)
	diags, err := RunPackage(pkg, as, facts)
	if err != nil {
		t.Fatal(err)
	}
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]string)
	total := 0
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], m[1])
				total++
			}
		}
	}
	if strings.HasSuffix(sub, "/bad") && total == 0 {
		t.Fatalf("fixture %s has no want comments; a bad fixture must demonstrate findings", sub)
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: missing diagnostic containing %q", k.file, k.line, w)
		}
	}
}

func TestRawIOFixtures(t *testing.T) {
	checkFixture(t, RawIO, "rawio/bad", "husgraph/internal/engine")
	checkFixture(t, RawIO, "rawio/ok", "husgraph/internal/storage")
}

func TestErrClassFixtures(t *testing.T) {
	checkFixture(t, ErrClass, "errclass/bad", "husgraph/internal/engine")
	checkFixture(t, ErrClass, "errclass/ok", "husgraph/internal/engine")
}

func TestLockHoldFixtures(t *testing.T) {
	checkFixture(t, LockHold, "lockhold/bad", "husgraph/internal/locks")
	checkFixture(t, LockHold, "lockhold/ok", "husgraph/internal/locks")
}

// TestFactChainTransitive is the cross-package gate, and the one property
// that pays for the summary pass: the dep fixture is summarized first and
// only its facts are handed to the consumer's analysis, which must report a
// mutex held around a storage.Store read five calls down in dep, and a lock
// order inversion whose second order exists only in a callee's Acquires —
// each with its full via chain. The ok twin makes the same calls with the
// mutex released first and must be silent.
func TestFactChainTransitive(t *testing.T) {
	for _, sub := range []string{"consumer", "ok"} {
		checkFixtureFull(t, Analyzers(), "factchain/"+sub, "husgraph/internal/lint/testdata/factchain/"+sub, depFacts(t))
	}
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	pkg := loadFixture(t, "ignore/ok", "husgraph/internal/engine")
	diags, err := RunPackage(pkg, Analyzers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("suppressed fixture still reports: %s", d)
	}
}

func TestMalformedIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore/bad", "husgraph/internal/engine")
	diags, err := RunPackage(pkg, Analyzers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// Malformed directives suppress nothing: all three rawio findings
	// survive, and each directive is reported in its own right.
	if byAnalyzer["rawio"] != 3 {
		t.Errorf("rawio findings = %d, want 3 (malformed ignores must not suppress)", byAnalyzer["rawio"])
	}
	if byAnalyzer["ignore"] != 3 {
		t.Errorf("ignore diagnostics = %d, want 3", byAnalyzer["ignore"])
	}
	for _, sub := range []string{
		"missing its reason",
		"unknown analyzer",
		"must be huslint/<name>",
	} {
		found := false
		for _, d := range diags {
			if d.Analyzer == "ignore" && strings.Contains(d.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no ignore diagnostic containing %q in %v", sub, diags)
		}
	}
}

// TestRepoIsClean runs the full suite over the module, mirroring the CI
// gate: the repository must stay huslint-clean.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res, err := Run("../..", []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}
