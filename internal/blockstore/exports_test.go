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

// testOnlyExports are the exported names of the guarded packages that no
// non-test file mentions and that stay anyway, each with the reason.
var testOnlyExports = map[string]string{
	"graph.ReadBinary":               "WriteBinary's inverse, which is how a library user loads what husgen -out writes; the codec round-trip tests are its callers",
	"bitset.Bitset.Equal":            "assertion helper: the merge tests compare a merged frontier's bitmap against the unsharded one",
	"core.Result.TotalRetries":       "assertion helper: FuzzEngineConfig holds the iterations' retries to the run's (Result.Recovery.Retries)",
	"shard.Coordinator.NumShards":    "assertion helper: TestShardCombinedStats checks the K the coordinator resolved",
	"shard.Coordinator.ShardDevices": "assertion helper: the shard tests check that every shard's own device was charged",
	"core.IterError.Unwrap":          "reached through errors.Is/errors.As, which is how every caller classifies an iteration's failure; never called by name",
}

// TestExportsHaveCallers keeps the engine packages' surface honest: every
// exported function and method of internal/graph, internal/bitset,
// internal/storage, internal/blockstore, internal/ioplan, internal/bucket,
// internal/core and internal/shard must be mentioned — selected
// (x.Name) anywhere, or called by its bare name inside its own package — in
// some non-test file of the module, perfbench included, or be listed in
// testOnlyExports with a reason. Six load/decode entry points, a reordering
// toolkit and half a bitset API once outlived their last caller because only
// tests still used them; a function that exists for tests belongs in a
// _test.go helper. Matching is by name, syntax only — it cannot prove a
// call, but it does catch a name nothing mentions. Methods the standard
// library calls through an interface (String, Error) are exempt.
func TestExportsHaveCallers(t *testing.T) {
	guarded := map[string]bool{}
	for _, pkg := range []string{"graph", "bitset", "storage", "blockstore", "ioplan", "bucket", "core", "shard"} {
		guarded[filepath.Join("../../internal", pkg)] = true
	}
	fset := token.NewFileSet()
	declared := map[string]bool{} // "pkg.Func" or "pkg.Type.Method"
	selected := map[string]bool{} // Name of any x.Name
	called := map[string]bool{}   // "pkg.Name" of a bare Name(...) in pkg
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
		pkg := filepath.Base(filepath.Dir(path))
		own := guarded[filepath.Dir(path)]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					called[pkg+"."+id.Name] = true
				}
			case *ast.FuncDecl:
				if !own || !n.Name.IsExported() {
					break
				}
				name := pkg + "." + n.Name.Name
				if n.Recv != nil {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
						recv = idx.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok {
						break
					}
					name = pkg + "." + id.Name + "." + n.Name.Name
				}
				declared[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 150 {
		t.Fatalf("found only %d exported functions and methods: the walk is not seeing the packages", len(declared))
	}
	var orphans []string
	for name := range declared {
		parts := strings.Split(name, ".")
		short := parts[len(parts)-1]
		mentioned := selected[short] || (len(parts) == 2 && called[name])
		_, kept := testOnlyExports[name]
		switch {
		case short == "String" || short == "Error":
		case mentioned && kept:
			t.Errorf("%s has a non-test mention now: drop it from testOnlyExports", name)
		case !mentioned && !kept:
			orphans = append(orphans, name)
		}
	}
	for name := range testOnlyExports {
		if !declared[name] {
			t.Errorf("testOnlyExports lists %s, which is not declared", name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("exported with no mention outside _test.go files (delete them, move them into a test helper, or list them in testOnlyExports with the reason):\n  %s", strings.Join(orphans, "\n  "))
	}
}
