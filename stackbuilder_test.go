package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
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

// TestSubstratesSpawnOnlyListedProcs keeps the library off coroutines: no
// non-test code under internal/ (experiment drivers aside) calls Env.Go. A
// control loop is a handler of its queue, and every wait of a substrate is
// a continuation form, so only drivers run processes.
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
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
				t.Errorf("%s: %s spawns a process: make the loop a handler or the wait a continuation",
					fset.Position(call.Pos()), f.Name.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportAllowlist names the exported identifiers under internal/ that no
// non-test code of another package uses but that stay exported, each with
// the reason it does.
var exportAllowlist = map[string]string{
	"condor.Schedd.FreeSlots":     "observer: tests assert that settled jobs hand their slots back",
	"condor.Schedd.Wait":          "observer: tests block on a job and read its outcome",
	"crt.Runtime.Live":            "observer: tests assert that no container outlives its task or pod",
	"experiments.ExecModeOnce":    "e2ebench's tests check their dag-fan runs against it",
	"experiments.QuickOptions":    "the root benchmarks run the quick table with it",
	"experiments.ScaleOnce":       "e2ebench's tests check their scale-pack runs against it",
	"registry.Registry.Pulls":     "observer: tests assert which layers a pull transferred",
	"resilience.ErrQueueFull":     "observer: knative tests tell a request shed at a full queue from other failures",
	"sim.Env.Alive":               "observer: tests assert that a run drained, with no process parked forever",
	"sim.Env.RunFor":              "observer: tests step a run by a period to assert state mid-run",
	"sim.Env.Stats":               "observer: tests assert the kernel's deterministic work counters",
	"sim.RNG.Intn":                "test input generator: property and fuzz tests draw bounded ints from a seeded stream",
	"storage.SharedFS.Has":        "observer: tests assert which files staging left on the shared filesystem",
	"wms.Workflow.ExternalInputs": "observer: workload tests assert which inputs a generated workflow needs staged",
	"wms.Workflow.Validate":       "observer: workload and fuzz tests assert that a generated workflow is sound",
	"workload.Random":             "test input generator: core's fuzz test draws random DAGs from it",
}

// exportGuardSkip are the packages TestInternalExportsHaveCallers does not
// audit.
var exportGuardSkip = map[string]string{
	"repro/internal/trace/tracetest": "test-helper package: only tests import it",
}

// TestInternalExportsHaveCallers keeps each package's API to what another
// package calls: every exported top-level func, var, const and type under
// internal/, and every exported method of an exported type, must be
// referenced by non-test code outside its package (internal/, cmd/,
// examples/ or e2ebench/) or be named in exportAllowlist. A method also
// counts as used when its type implements an interface that declares it
// (fmt.Stringer, error, sort.Interface, heap.Interface or one of the
// program's own), a const when its named type is used, and a type when it
// appears in the signature or in an exported field of a used name.
func TestInternalExportsHaveCallers(t *testing.T) {
	prog := loadProgram(t, "internal", "cmd", "examples", "e2ebench")
	used := map[types.Object]bool{}
	var work []types.Object
	use := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if obj.Pkg() != nil && prog.pkgs[obj.Pkg().Path()] != nil && !used[obj] {
			used[obj] = true
			work = append(work, obj)
		}
	}
	for _, p := range prog.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != p.types {
				use(obj)
			}
		}
	}

	// Interfaces a method can be used through.
	var ifaces []*types.Interface
	for path, name := range map[string]string{"fmt": "Stringer", "sort": "Interface", "container/heap": "Interface"} {
		p, err := prog.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range prog.pkgs {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}

	// The audited names: exported top-level objects and exported methods of
	// exported types.
	var audited []types.Object
	var paths []string
	for path := range prog.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if !strings.HasPrefix(path, "repro/internal/") || exportGuardSkip[path] != "" {
			continue
		}
		scope := prog.pkgs[path].types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			audited = append(audited, obj)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				audited = append(audited, m)
				if named.TypeParams().Len() > 0 {
					continue
				}
				for _, iface := range ifaces {
					if declares(iface, m.Name()) && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
						use(m)
						break
					}
				}
			}
		}
	}

	// A used name keeps the types its signature and exported fields show.
	var mark func(types.Type)
	mark = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Named:
			use(typ.Origin().Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				mark(typ.TypeArgs().At(i))
			}
		case *types.Alias:
			use(typ.Obj())
			mark(types.Unalias(typ))
		case *types.Pointer:
			mark(typ.Elem())
		case *types.Slice:
			mark(typ.Elem())
		case *types.Array:
			mark(typ.Elem())
		case *types.Chan:
			mark(typ.Elem())
		case *types.Map:
			mark(typ.Key())
			mark(typ.Elem())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				mark(typ.At(i).Type())
			}
		case *types.Signature:
			mark(typ.Params())
			mark(typ.Results())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() || f.Embedded() {
					mark(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				mark(typ.Method(i).Type())
			}
		}
	}
	settle := func() {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if tn, ok := obj.(*types.TypeName); ok {
				mark(tn.Type().Underlying())
			} else {
				mark(obj.Type())
			}
		}
	}
	// isUsed also counts a const of a used named type: one enum stays one
	// namespace.
	isUsed := func(obj types.Object) bool {
		if c, ok := obj.(*types.Const); ok {
			if named, ok := c.Type().(*types.Named); ok && named.Obj().Pkg() == c.Pkg() && used[named.Obj()] {
				return true
			}
		}
		return used[obj]
	}
	settle()

	// An allowlisted name stays exported, and so do the types it shows.
	allowed := map[string]types.Object{}
	for _, obj := range audited {
		key := exportKey(obj)
		if _, ok := exportAllowlist[key]; !ok {
			continue
		}
		allowed[key] = obj
		if isUsed(obj) {
			t.Errorf("exportAllowlist names %s, which another package uses: drop the entry", key)
		}
		use(obj)
	}
	for key := range exportAllowlist {
		if allowed[key] == nil {
			t.Errorf("exportAllowlist names %s, which is not an exported name under internal/: drop the entry", key)
		}
	}
	settle()
	for _, obj := range audited {
		if !isUsed(obj) {
			t.Errorf("%s: %s is exported, but no non-test code outside its package uses it: delete or unexport it",
				prog.fset.Position(obj.Pos()), exportKey(obj))
		}
	}
}

// fieldAllowlist names the exported struct fields under internal/ that the
// program does not both set and read but that stay, each with the reason
// they do.
var fieldAllowlist = map[string]string{
	"experiments.MixResult.Mix":              "read by reflection: fig5's table renders its native, container and serverless columns",
	"httpfn.Client.Timeout":                  "deployment setting: bounds a live invocation end to end; the live example runs without one",
	"knative.Event.Source":                   "observer: a trigger-release test asserts the node each settled event was published from",
	"knative.OverloadStats.BreakerFastFails": "observer: breaker tests and the serving churn digests count denials that no request outcome shows (a retried attempt's)",
	"knative.OverloadStats.BreakerTrips":     "observer: breaker tests and the serving churn digests count the breaker's transitions to open",
	"knative.Response.PodNode":               "observer: routing, drain and serving churn tests assert which worker served a request",
	"knative.Response.Queued":                "observer: concurrency-gate and serving churn tests assert how long a request waited for a slot",
}

// TestInternalFieldsAreSetAndRead keeps each exported field of an exported
// type under internal/ to one the program uses: some non-test code
// (internal/, cmd/, examples/ or e2ebench/) must write it and some must read
// it, or fieldAllowlist must name it. A write is a keyed or positional
// composite literal, an assignment, an inc/dec, or taking the field's
// address, explicitly or by calling a pointer method on it; writing into a
// field's element or sub-field writes the field too. A field with a json
// tag is written and read by its codec, and a function or method that
// exportAllowlist names keeps the fields of the types it returns read. A
// knob no code sets selects a path no binary runs; an output no code reads
// costs every run for a test's sake.
func TestInternalFieldsAreSetAndRead(t *testing.T) {
	prog := loadProgram(t, "internal", "cmd", "examples", "e2ebench")
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	fieldOf := func(obj types.Object) *types.Var {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	for _, p := range prog.pkgs {
		// writeOnly holds the field identifiers a write names without
		// reading: an assignment's target and a composite literal's key.
		writeOnly := map[*ast.Ident]bool{}
		var inner func(ast.Expr)
		// inner marks the fields e's contents live in as written: a
		// selector chain, through indexing, down to its root.
		inner = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if v := fieldOf(p.info.Uses[e.Sel]); v != nil {
					written[v] = true
					inner(e.X)
				}
			case *ast.IndexExpr:
				inner(e.X)
			}
		}
		lvalue := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && fieldOf(p.info.Uses[sel.Sel]) != nil {
				writeOnly[sel.Sel] = true
			}
			inner(e)
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						lvalue(lhs)
					}
				case *ast.IncDecStmt:
					lvalue(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						inner(n.X)
					}
				case *ast.SelectorExpr:
					// x.F.M() with a pointer method M takes &x.F.
					if sel := p.info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						if _, ptrX := sel.Recv().(*types.Pointer); ptrRecv && !ptrX {
							inner(n.X)
						}
					}
				case *ast.CompositeLit:
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident)
							writeOnly[key] = true
							written[fieldOf(p.info.Uses[key])] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v := fieldOf(obj); v != nil && !writeOnly[id] {
				read[v] = true
			}
		}
	}

	// An allowlisted name keeps the fields of the types it returns.
	seen := map[types.Type]bool{}
	var keep func(types.Type)
	keep = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			if st, ok := typ.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					read[st.Field(i).Origin()] = true
					keep(st.Field(i).Type())
				}
			}
		case *types.Pointer:
			keep(typ.Elem())
		case *types.Slice:
			keep(typ.Elem())
		case *types.Map:
			keep(typ.Elem())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				keep(typ.At(i).Type())
			}
		}
	}

	type field struct {
		v   *types.Var
		key string // pkg.Type.Field
	}
	var audited []field
	for path, p := range prog.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") || exportGuardSkip[path] != "" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if exportAllowlist[exportKey(obj)] != "" {
					keep(obj.Type().(*types.Signature).Results())
				}
			case *types.TypeName:
				if !obj.Exported() || obj.IsAlias() {
					continue
				}
				named := obj.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); exportAllowlist[exportKey(m)] != "" {
						keep(m.Type().(*types.Signature).Results())
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if _, json := reflect.StructTag(st.Tag(i)).Lookup("json"); v.Exported() && !v.Embedded() && !json {
						audited = append(audited, field{v, p.types.Name() + "." + name + "." + v.Name()})
					}
				}
			}
		}
	}
	sort.Slice(audited, func(i, j int) bool { return audited[i].key < audited[j].key })
	allowed := map[string]bool{}
	for _, f := range audited {
		pos := prog.fset.Position(f.v.Pos())
		switch _, ok := fieldAllowlist[f.key]; {
		case ok:
			allowed[f.key] = true
			if written[f.v] && read[f.v] {
				t.Errorf("fieldAllowlist names %s, which non-test code both sets and reads: drop the entry", f.key)
			}
		case !written[f.v] && !read[f.v]:
			t.Errorf("%s: %s is neither set nor read by non-test code: delete it", pos, f.key)
		case !written[f.v]:
			t.Errorf("%s: %s is read but never set by non-test code: it is a knob only tests turn; delete it and the path it selects", pos, f.key)
		case !read[f.v]:
			t.Errorf("%s: %s is set but never read by non-test code: it is an output only tests read; delete it and the code that computes it", pos, f.key)
		}
	}
	for key := range fieldAllowlist {
		if !allowed[key] {
			t.Errorf("fieldAllowlist names %s, which is not an exported field of an exported type under internal/: drop the entry", key)
		}
	}
}

// declares reports whether iface has a method called name.
func declares(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// exportKey names obj as pkg.Name, or pkg.Type.Method for a method.
func exportKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			return obj.Pkg().Name() + "." + typ.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// program is the non-test code of the module's packages, type-checked
// from source.
type program struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checkedPkg // by import path
}

type checkedPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// loadProgram type-checks every package under dirs. An import of repro/...
// is checked from its directory; the standard library is checked from
// GOROOT's source.
func loadProgram(t *testing.T, dirs ...string) *program {
	t.Helper()
	fset := token.NewFileSet()
	prog := &program{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), pkgs: map[string]*checkedPkg{}}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = prog.Import("repro/" + filepath.ToSlash(path))
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return p.std.ImportFrom(path, dir, mode)
	}
	if c, ok := p.pkgs[path]; ok {
		return c.types, nil
	}
	bp, err := build.ImportDir(filepath.FromSlash(rel), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = &checkedPkg{types: pkg, files: files, info: info}
	return pkg, nil
}
