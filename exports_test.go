package knighter

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

// testOnlyExports names the exported functions and methods that stay
// although no non-test code calls them, each with the reason it stays.
// Keys are qualified the way TestNoTestOnlyExports prints them.
var testOnlyExports = map[string]string{
	"obs.CheckExposition":          "the exposition oracle of the obs, store and serve tests; a _test.go export cannot cross packages",
	"segment.Store.InvalidateFunc": "benchmark/probes.go times it as the segment tier's one-function invalidation",
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ or cmd/ whose name no identifier of non-test code under
// internal/, cmd/ or benchmark/ uses. A reference through a package from
// outside the module (slices.Clone, bytes.Equal) does not count. The
// check is by name, so it is conservative: a method whose name another
// declaration shares passes. A function only tests call belongs in a
// test file, or in testOnlyExports with the reason it stays.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type export struct{ name, qual string }
	var exports []export
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			// A selector through an import from outside the module names
			// someone else's function.
			foreign := map[string]bool{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(p, "knighter/") {
					continue
				}
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				foreign[name] = true
			}
			declared := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name] = true
				if root == "benchmark" || !fn.Name.IsExported() {
					continue
				}
				qual := f.Name.Name + "."
				if fn.Recv != nil {
					qual += recvName(fn.Recv.List[0].Type) + "."
				}
				exports = append(exports, export{fn.Name.Name, qual + fn.Name.Name})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && foreign[x.Name] {
						return false
					}
				case *ast.Ident:
					if !declared[n] {
						used[n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for _, e := range exports {
		if _, ok := testOnlyExports[e.qual]; !ok && !used[e.name] {
			unused = append(unused, e.qual)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions have no caller outside tests; move each into a test file, or add it to testOnlyExports with the reason it stays:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// recvName is the type name of a method receiver: T for T, *T and T[P].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
