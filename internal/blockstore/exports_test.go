package blockstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveCallers keeps the package's surface honest: every exported
// method of the types other packages hold must be selected (x.Name) in some
// non-test file of the module, perfbench included. Six load/decode entry
// points once outlived their last caller because only tests still used
// them; a method that exists for tests belongs in a _test.go helper.
// Matching is by name, syntax only — it cannot prove a call, but it does
// catch a name nothing mentions. String is exempt (fmt calls it).
func TestExportsHaveCallers(t *testing.T) {
	guarded := map[string]bool{"DualStore": true, "BlockCache": true, "Prefetcher": true, "PrefetchResult": true, "CachedBlock": true}
	fset := token.NewFileSet()
	methods := map[string]string{} // method name → receiver type
	selected := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && name != "..") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := filepath.Dir(path) == "../../internal/blockstore"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.FuncDecl:
				if own && n.Recv != nil && n.Name.IsExported() {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && guarded[id.Name] {
						methods[n.Name.Name] = id.Name
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) < 20 {
		t.Fatalf("found only %d exported methods on %v: the walk is not seeing the package", len(methods), guarded)
	}
	var orphans []string
	for name, recv := range methods {
		if name != "String" && !selected[name] {
			orphans = append(orphans, recv+"."+name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("exported with no caller outside _test.go files (delete them, or move them into a test helper): %s", strings.Join(orphans, ", "))
	}
}
