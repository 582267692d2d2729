// The stats guard: an exported field of a Stats struct is a counter the
// product keeps up on every event it counts, so it must have a reader. A
// field that no non-test code reads — no cmd, no ledger writer under
// internal/, nothing under benchmark/ — is an atomic add paid for a test,
// and this test fails until it goes or earns a line on the allow-list.
package bpwrapper_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
// selector x.Field in a non-test Go file anywhere in the repository that
// is not the target of an assignment or ++/-- (a package-qualified name,
// bpwrapper.Policy, is no field read). Fields are matched by name,
// so a name two types share can keep an unread field alive but never fail
// a read one; -v prints each field's first reader.
func TestEveryStatHasAReader(t *testing.T) {
	fset := token.NewFileSet()

	fields := map[string][]string{} // field name → "<dir>.<Type>.<Field>" of each guarded field
	var all []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		dir := filepath.ToSlash(path)
		for _, file := range parseKnobDir(t, fset, path) {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Stats") {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								id := dir + "." + ts.Name.Name + "." + name.Name
								fields[name.Name] = append(fields[name.Name], id)
								all = append(all, id)
							}
						}
					}
				}
				return false
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 60 {
		t.Fatalf("found %d Stats fields, want the seventy-odd of the pool, wrapper, device, server and tracer: the scan is broken", len(all))
	}

	readers := map[string]string{} // field name → "file:line" of its first non-test read
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if statsReaderSkip[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := knobImports(file)
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
			if !ok || written[sel] || fields[sel.Sel.Name] == nil {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || imports[pkg.Name] == "" {
				if _, seen := readers[sel.Sel.Name]; !seen {
					pos := fset.Position(sel.Sel.Pos())
					readers[sel.Sel.Name] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sort.Strings(all)
	var unread []string
	for _, id := range all {
		name := id[strings.LastIndex(id, ".")+1:]
		e, allowed := statsWithoutReader[id]
		switch at := readers[name]; {
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
		found := false
		for _, f := range fields[name] {
			found = found || f == id
		}
		if !found {
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
