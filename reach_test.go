package knighter

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the declarations of non-test code that stay
// although no binary reaches them, each with the reason it stays. Keys
// are spelled the way the audit prints them: package, then receiver type
// for a method, then name.
var unreachedAllowed = map[string]string{
	"obs.CheckExposition": "the exposition oracle of the obs, store and serve tests; a _test.go declaration cannot cross packages",
}

// benchmarkOnly names the declarations of non-test code that only
// benchmark/ reaches. They are deleted with ROADMAP item 1(b), which lets
// benchmark/ time the calls the daemons make; until then the list is
// pinned, so new code that only the benchmark reaches cannot appear
// unnoticed.
var benchmarkOnly = []string{
	"scan.Codebase.FuncHash",
	"segment.Store.Get",
	"segment.Store.InvalidateFunc",
	"segment.Store.Sync",
	"shard.ScanJob",
	"shard.Scatter.Scan",
	"store.Key.Digest",
	"store.Key.ID",
	"store.Memory.Get",
	"store.Memory.Put",
	"store.Remote.Get",
	"store.Remote.Put",
	"store.SegmentDisk.Get",
	"store.SegmentDisk.Put",
	"store.decodeResult",
	"store.getOne",
}

// TestEveryDeclarationIsReached is a whole-program reachability audit of
// the module and the benchmark runner, on go/types. The roots are the
// binaries' main functions, every init and every package-level var
// initializer of the packages they link; a declaration that no root
// reaches is dead code, and the test fails on it unless unreachedAllowed
// names it. The audit runs twice, with and without benchmark/'s main, and
// what only benchmark/ reaches must be exactly benchmarkOnly. It also
// fails on a `_ = x` statement that silences an unused local variable.
func TestEveryDeclarationIsReached(t *testing.T) {
	t.Parallel()
	prog, err := loadProgram(map[string]string{".": "knighter", "benchmark": "knighter/benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	var bins, all []*reachPkg
	for _, p := range prog.pkgs {
		if p.types.Name() != "main" {
			continue
		}
		all = append(all, p)
		if p.path != "knighter/benchmark" {
			bins = append(bins, p)
		}
	}
	if len(all) != len(bins)+1 {
		t.Fatalf("benchmark/ is not a main package of the program: its main must stay a root")
	}
	var allowed []string
	for k := range unreachedAllowed {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	var stale []string
	dead := prog.unreached(all, nil, "knighter/benchmark")
	for _, k := range allowed {
		if !slices.Contains(dead, k) {
			stale = append(stale, k)
		}
	}
	if len(stale) > 0 {
		t.Errorf("unreachedAllowed names declarations that a binary reaches, or that are gone:\n\t%s", strings.Join(stale, "\n\t"))
	}
	// What an allowed declaration reaches is allowed with it.
	dead = prog.unreached(all, allowed, "knighter/benchmark")
	if len(dead) > 0 {
		t.Errorf("%d declarations of non-test code are reached by no binary; delete each, move it into a test file, or add it to unreachedAllowed with the reason it stays:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	var benchOnly []string
	for _, d := range prog.unreached(bins, allowed, "knighter/benchmark") {
		if !slices.Contains(dead, d) {
			benchOnly = append(benchOnly, d)
		}
	}
	if got, want := strings.Join(benchOnly, "\n\t"), strings.Join(benchmarkOnly, "\n\t"); got != want {
		t.Errorf("the declarations only benchmark/ reaches are\n\t%s\nbut benchmarkOnly pins\n\t%s", got, want)
	}
	if s := prog.silencers("knighter/benchmark"); len(s) > 0 {
		t.Errorf("`_ = x` silences an unused local variable; delete the variable or use it:\n\t%s", strings.Join(s, "\n\t"))
	}
}

// TestReachAuditFixture runs the audit on testdata/reach, a module whose
// dead and live declarations are known: it must report exactly the dead
// ones, whether or not go/types represents aliases as types.Alias (the
// gotypesalias default differs between Go versions).
func TestReachAuditFixture(t *testing.T) {
	for _, godebug := range []string{"gotypesalias=0", "gotypesalias=1"} {
		t.Run(godebug, func(t *testing.T) {
			t.Setenv("GODEBUG", godebug)
			prog, err := loadProgram(map[string]string{"testdata/reach": "reachfix"})
			if err != nil {
				t.Fatal(err)
			}
			got := prog.unreached([]*reachPkg{prog.pkgs["reachfix"]}, nil, "")
			want := []string{
				"lib.Box.Set",         // a generic method nothing calls, beside a live one
				"lib.Dead",            // nothing calls it
				"lib.Graph.Stats",     // shares its name with the live Counter.Stats
				"lib.Square.Diagonal", // its type is reached through Shape, but Shape has no Diagonal
				"lib.helper",          // only Dead calls it
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("unreached:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
			}
			if got, want := prog.silencers(""), []string{"testdata/reach/main.go:18: _ = n"}; strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("silencers: %q, want %q", got, want)
			}
		})
	}
}

// reachPkg is one type-checked package of non-test files.
type reachPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is every package of one or more modules, type-checked together.
type program struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg // by import path
	std  []*types.Interface   // the standard interfaces std code calls on module types
}

// standardInterfaces are the interfaces through which the standard
// library calls module code: a method that implements one of them is
// reached when its receiver type is.
var standardInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Writer"},
	{"net/http", "Handler"},
	{"encoding/json", "Marshaler"},
}

// loadProgram parses the non-test Go files of each module (directory →
// module path; nested modules and testdata are skipped) and type-checks
// every package. Packages from outside the modules come from the export
// data of one `go list -export`. Any parse or type error fails the load.
func loadProgram(modules map[string]string) (*program, error) {
	prog := &program{fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}}
	imports := map[string]bool{}
	for _, s := range standardInterfaces {
		if s.pkg != "" {
			imports[s.pkg] = true
		}
	}
	for dir, mod := range modules {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != dir {
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			entries, err := os.ReadDir(p)
			if err != nil {
				return err
			}
			pkg := &reachPkg{path: mod}
			if rel, _ := filepath.Rel(dir, p); rel != "." {
				pkg.path = path.Join(mod, filepath.ToSlash(rel))
			}
			for _, e := range entries {
				n := e.Name()
				if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
					continue
				}
				if ok, err := build.Default.MatchFile(p, n); err != nil || !ok {
					if err != nil {
						return err
					}
					continue
				}
				f, err := parser.ParseFile(prog.fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				pkg.files = append(pkg.files, f)
				for _, imp := range f.Imports {
					imports[strings.Trim(imp.Path.Value, `"`)] = true
				}
			}
			if len(pkg.files) > 0 {
				prog.pkgs[pkg.path] = pkg
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var foreign []string
	for p := range imports {
		if prog.pkgs[p] == nil && p != "unsafe" {
			foreign = append(foreign, p)
		}
	}
	sort.Strings(foreign)
	exports, err := exportData(foreign)
	if err != nil {
		return nil, err
	}
	stdImporter := importer.ForCompiler(prog.fset, "gc", func(p string) (io.ReadCloser, error) {
		if f, ok := exports[p]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", p)
	})
	var check func(p string) (*types.Package, error)
	check = func(p string) (*types.Package, error) {
		pkg := prog.pkgs[p]
		if pkg == nil {
			return stdImporter.Import(p)
		}
		if pkg.types != nil {
			return pkg.types, nil
		}
		pkg.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importerFunc(check)}
		tp, err := conf.Check(p, prog.fset, pkg.files, pkg.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p, err)
		}
		pkg.types = tp
		return tp, nil
	}
	for p := range prog.pkgs {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	for _, s := range standardInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			tp, err := stdImporter.Import(s.pkg)
			if err != nil {
				return nil, err
			}
			scope = tp.Scope()
		}
		prog.std = append(prog.std, scope.Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportData maps each package to its export data file, which `go list
// -export` builds into the build cache if it is not there yet.
func exportData(pkgs []string) (map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, pkgs...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if p, f, ok := strings.Cut(line, "\t"); ok && f != "" {
			exports[p] = f
		}
	}
	return exports, nil
}

// decl is a package-level declaration: the syntax whose references it
// reaches, and the package whose types.Info resolves them.
type decl struct {
	pkg  *reachPkg
	node ast.Node
}

// declarations maps every package-level object of the program to its
// declaration. A var or const spec declares all its names at once.
func (prog *program) declarations() map[types.Object]decl {
	decls := map[types.Object]decl{}
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[pkg.info.Defs[d.Name]] = decl{pkg, d}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decls[pkg.info.Defs[s.Name]] = decl{pkg, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := pkg.info.Defs[n]; obj != nil {
									decls[obj] = decl{pkg, s}
								}
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// unreached lists, sorted, the declarations outside the skip package that
// the roots do not reach. The roots are the main packages' main
// functions, every init function and package-level var initializer of
// the packages the mains link, and the declarations named in extra.
//
// A function, type, var or const is reached when reached code names it;
// a generic instantiation counts as its origin. A method is reached when
// reached code selects it, or when its receiver type is reached and it
// implements either a method of an interface that reached code calls or
// a standard interface (standardInterfaces). An interface's unexported
// method without parameters or results only marks which types may
// implement it, so it counts as called once the interface is reached.
func (prog *program) unreached(mains []*reachPkg, extra []string, skip string) []string {
	decls := prog.declarations()
	reached := map[types.Object]bool{}
	called := map[string][]*types.Interface{} // interface methods reached code calls, by name
	var queue []decl
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if iface, ok := recvType(fn).Underlying().(*types.Interface); ok {
				called[fn.Name()] = append(called[fn.Name()], iface)
			}
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && decls[obj].pkg != nil {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					if sig := m.Type().(*types.Signature); !m.Exported() && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
						called[m.Name()] = append(called[m.Name()], iface)
					}
				}
			}
		}
		if d, ok := decls[obj]; ok {
			queue = append(queue, d)
		}
	}
	linked := map[*types.Package]bool{}
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp] || prog.pkgs[tp.Path()] == nil {
			return
		}
		linked[tp] = true
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	for _, m := range mains {
		link(m.types)
		mark(m.types.Scope().Lookup("main"))
	}
	for obj := range decls {
		if slices.Contains(extra, declName(obj)) {
			mark(obj)
		}
	}
	for tp := range linked {
		pkg := prog.pkgs[tp.Path()]
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						queue = append(queue, decl{pkg, d})
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						for _, v := range s.(*ast.ValueSpec).Values {
							queue = append(queue, decl{pkg, v})
						}
					}
				}
			}
		}
	}
	for n := -1; n != len(reached) || len(queue) > 0; {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := d.pkg.info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
		// Dispatch: the methods of reached types that an interface call
		// can run.
		n = len(reached)
		for obj := range reached {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || decls[obj].pkg == nil {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			generic := tn.Type().(*types.Named).TypeParams().Len() > 0
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if reached[m.Origin()] {
					continue
				}
				for _, iface := range called[m.Name()] {
					// A generic type's methods are matched by name.
					if generic || types.Implements(ptr, iface) {
						mark(m)
						break
					}
				}
				for _, iface := range prog.std {
					if !reached[m.Origin()] && hasMethod(iface, m.Name()) && types.Implements(ptr, iface) {
						mark(m)
					}
				}
			}
		}
	}
	var dead []string
	for obj, d := range decls {
		if reached[obj] || d.pkg.path == skip || obj.Name() == "_" || obj.Name() == "init" {
			continue
		}
		dead = append(dead, declName(obj))
	}
	sort.Strings(dead)
	return dead
}

// recvType is a method's receiver type without its pointer and aliases,
// or an invalid type for a plain function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return types.Typ[types.Invalid]
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t)
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// declName spells a declaration as the audit prints it: the last element
// of its package path, its receiver type for a method, and its name.
func declName(obj types.Object) string {
	name := path.Base(obj.Pkg().Path()) + "."
	if fn, ok := obj.(*types.Func); ok {
		if n, ok := recvType(fn).(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// silencers lists the `_ = x` statements, outside the skip package, whose
// x is a local variable: they hide a variable nothing uses.
func (prog *program) silencers(skip string) []string {
	var found []string
	for _, pkg := range prog.pkgs {
		if pkg.path == skip {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					l, ok := lhs.(*ast.Ident)
					r, rok := as.Rhs[i].(*ast.Ident)
					if !ok || !rok || l.Name != "_" {
						continue
					}
					if v, ok := pkg.info.Uses[r].(*types.Var); ok && !v.IsField() && v.Parent() != pkg.types.Scope() {
						pos := prog.fset.Position(as.Pos())
						found = append(found, fmt.Sprintf("%s:%d: _ = %s", filepath.ToSlash(pos.Filename), pos.Line, r.Name))
					}
				}
				return true
			})
		}
	}
	sort.Strings(found)
	return found
}
