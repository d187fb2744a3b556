package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// substrateConstructors are the constructors core.NewPlatform and
// core.NewStack wire together, keyed by import path.
var substrateConstructors = map[string]string{
	"repro/internal/cluster":  "New",
	"repro/internal/registry": "New",
	"repro/internal/crt":      "NewSet",
	"repro/internal/kube":     "New",
	"repro/internal/knative":  "New",
	"repro/internal/condor":   "New",
}

// TestDriversUseOneStackBuilder keeps one way to build a stack: experiments,
// commands, examples and the root benchmarks get their substrates from
// core.NewPlatform or core.NewStack, never by calling a substrate
// constructor. A hand-wired copy drifts from the builder: one that skips
// registry.Protect or crt.Set.GateRetries ignores the breaker and
// retry-budget knobs.
func TestDriversUseOneStackBuilder(t *testing.T) {
	files := []string{"bench_test.go"}
	for _, dir := range []string{"internal/experiments", "cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		// The local name each substrate package goes by in this file.
		ctorOf := map[string]string{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			ctor, ok := substrateConstructors[ipath]
			if !ok {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ctorOf[name] = ctor
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && ctorOf[pkg.Name] == sel.Sel.Name {
				t.Errorf("%s: %s.%s wires a substrate by hand; build it with core.NewPlatform or core.NewStack",
					fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}
