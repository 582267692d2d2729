// The stats guard: an exported field of a Stats struct is a counter the
// product keeps up on every event it counts, so it must have a reader. A
// field that no non-test code reads — no cmd, no ledger writer under
// internal/, nothing under benchmark/ — is an atomic add paid for a test,
// and this test fails until it goes or earns a line on the allow-list.
package bpwrapper_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// statsWithoutReader lists the Stats fields allowed no non-test selector.
// Each stays because the file it cites reads it by name (a test that
// asserts the value does not count), and the guard checks that the file
// names the field, so a reason cannot outlive its reader. Reflection — an
// encoder or a walk over the struct's fields — is not a reader.
var statsWithoutReader = map[string]struct{ file, why string }{}

// statsReaderSkip are directories the reader walk does not enter.
var statsReaderSkip = map[string]bool{".git": true, ".bench_build": true, "testdata": true}

// TestEveryStatHasAReader is the guard. The structs are every type named
// *Stats declared in a non-test file under internal/. A reader is a
// selector x.Field in a non-test Go file anywhere in the repository (as
// the default build sees it) that is not the target of an assignment or
// ++/--, and that go/types resolves to that very field: a field of the same
// name on another type reads nothing. -v prints each field's first reader.
func TestEveryStatHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := statsPackages(t, fset)

	fields := map[*types.Var]string{} // guarded field → "<dir>.<Type>.<Field>"
	var all []string
	for dir, pkg := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Stats") {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if v, ok := pkg.info.Defs[name].(*types.Var); ok && name.IsExported() {
								fields[v] = dir + "." + ts.Name.Name + "." + name.Name
								all = append(all, fields[v])
							}
						}
					}
				}
				return false
			})
		}
	}
	if len(all) < 55 {
		t.Fatalf("found %d Stats fields, want the fifty-odd of the pool, wrapper, device, server and tracer: the scan is broken", len(all))
	}

	readers := map[string]string{} // field id → "file:line" of its first non-test read
	for _, pkg := range pkgs {
		for _, file := range pkg.files {
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || written[sel] {
					return true
				}
				if s := pkg.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					id := fields[s.Obj().(*types.Var).Origin()]
					if _, seen := readers[id]; id != "" && !seen {
						pos := fset.Position(sel.Sel.Pos())
						readers[id] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					}
				}
				return true
			})
		}
	}

	sort.Strings(all)
	var unread []string
	for _, id := range all {
		e, allowed := statsWithoutReader[id]
		switch at := readers[id]; {
		case at == "" && !allowed:
			unread = append(unread, id)
		case at != "" && allowed:
			t.Errorf("statsWithoutReader lists %s, but %s reads it: drop the entry", id, at)
		case allowed:
			t.Logf("%-56s allowed: %s (%s)", id, e.file, e.why)
		default:
			t.Logf("%-56s first read at %s", id, at)
		}
	}
	if len(unread) > 0 {
		t.Errorf("%d Stats fields have no reader: no non-test selector reads them and statsWithoutReader does not list them (delete the counter, or cite its reader):\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
	for id, e := range statsWithoutReader {
		name := id[strings.LastIndex(id, ".")+1:]
		if !slices.Contains(all, id) {
			t.Errorf("statsWithoutReader lists %s, which is no field of a guarded Stats struct", id)
			continue
		}
		src, err := os.ReadFile(e.file)
		if err != nil {
			t.Errorf("statsWithoutReader: %s cites %s: %v", id, e.file, err)
			continue
		}
		if strings.HasSuffix(e.file, "_test.go") {
			t.Errorf("statsWithoutReader: %s cites %s, a test: a test alone does not keep a product counter", id, e.file)
		}
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(src) {
			t.Errorf("statsWithoutReader: %s cites %s (%s), which does not name it", id, e.file, e.why)
		}
	}
	t.Logf("%d Stats fields, %d on the allow-list", len(all), len(statsWithoutReader))
}

// statsPackage is one directory's non-test files, type-checked.
type statsPackage struct {
	files []*ast.File
	info  *types.Info
}

// statsPackages type-checks every package of the repository from source,
// keyed by directory. The module's own imports resolve to these packages;
// any other import is an empty stand-in, so an expression of a standard
// library type goes untyped, which leaves the module's own fields, the
// only ones the guard asks about, resolved.
func statsPackages(t *testing.T, fset *token.FileSet) map[string]*statsPackage {
	t.Helper()
	pkgs := map[string]*statsPackage{}
	byPath := map[string]*types.Package{}
	var check func(dir string) *types.Package
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p, nil
		}
		if dir, ok := strings.CutPrefix(path, "bpwrapper"); ok && !strings.HasPrefix(dir, "/benchmark") {
			return check(strings.TrimPrefix(dir, "/")), nil
		}
		p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		p.MarkComplete()
		byPath[path] = p
		return p, nil
	})
	check = func(dir string) *types.Package {
		path := strings.TrimSuffix("bpwrapper/"+dir, "/")
		if p, ok := byPath[path]; ok {
			return p
		}
		if dir == "" {
			dir = "."
		}
		pkg := &statsPackage{info: &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Defs: map[*ast.Ident]types.Object{}}}
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, name := range names {
			if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok || strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg.files = append(pkg.files, file)
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		p, _ := conf.Check(path, fset, pkg.files, pkg.info)
		byPath[path] = p
		pkgs[filepath.ToSlash(dir)] = pkg
		return p
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if statsReaderSkip[d.Name()] {
			return filepath.SkipDir
		}
		if path == "." {
			path = ""
		}
		check(filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
