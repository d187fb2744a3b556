package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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

// experimentsAPI is all that internal/experiments exports: the table
// (Options, Select and its Experiment entries, Targets, WriteSection), the
// mixes examples/tradeoff sweeps, and the two single-run functions
// e2ebench's tests compare their drivers against.
var experimentsAPI = []string{
	"DefaultOptions", "ExecModeOnce", "ExecModeRun", "Experiment", "Mix", "MixResult",
	"Options", "QuickOptions", "RunMix", "ScaleOnce", "ScaleRun", "Select", "Targets",
	"WriteSection",
}

// TestExperimentsExportOnlyTheTable keeps internal/experiments' API to its
// table: a study is an entry of the table, not a typed public driver with
// its own result type, so a new exported top-level name must be added here
// on purpose.
func TestExperimentsExportOnlyTheTable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/experiments", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						got = append(got, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								got = append(got, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() {
									got = append(got, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(experimentsAPI, " ") {
		t.Errorf("internal/experiments exports %d names, want the %d of the table API:\n got  %v\n want %v",
			len(got), len(experimentsAPI), got, experimentsAPI)
	}
}

// substrateProcs are the processes the library may spawn, as (package,
// name or name prefix) pairs: code that takes a *sim.Proc. A control loop
// that runs no such code is a handler of its queue or a chain of
// continuations, never a process.
var substrateProcs = map[[2]string]bool{
	{"condor", "job"}:        true, // the Runner gets ctx.Proc
	{"knative", "stage-in"}:  true, // the GoFirst hooks
	{"knative", "stage-out"}: true,
	{"kube", "pull-"}:        true,
}

// TestSubstratesSpawnOnlyListedProcs keeps the substrates' control loops
// off coroutines: every Env.Go and Env.GoFirst in the non-test code under
// internal/ (experiment drivers aside) must spawn a process substrateProcs
// lists, named by a string literal or a literal prefix.
func TestSubstratesSpawnOnlyListedProcs(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == filepath.Join("internal", "experiments"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Go" && sel.Sel.Name != "GoFirst" {
				return true
			}
			name := call.Args[0]
			if bin, ok := name.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
				name = bin.X
			}
			prefix := ""
			if lit, ok := name.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				prefix, _ = strconv.Unquote(lit.Value)
			}
			if !substrateProcs[[2]string{f.Name.Name, prefix}] {
				t.Errorf("%s: %s spawns process %q, which substrateProcs does not list: make the loop a handler",
					fset.Position(call.Pos()), f.Name.Name, prefix)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
