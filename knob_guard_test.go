// The knob guard: an exported field of one of the nine config structs is an
// option every test and benchmark configuration multiplies by, so it must
// have a caller. A field that no product code outside its own package sets —
// no cmd, no example, nothing under benchmark/ or internal/ — is a constant
// with extra steps, and this test fails until it becomes one or earns a
// line on the allow-list below.
//
// The facade guard holds bpwrapper.go to the same rule: a name it exports
// is one some caller writes as bpwrapper.<Name>.
package bpwrapper_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// knobStructs are the config structs the guard holds to the rule, as
// "<declaring directory>.<type>".
var knobStructs = []string{
	"internal/buffer.Config",
	"internal/buffer.BackgroundWriterConfig",
	"internal/core.Config",
	"internal/server.Config",
	"internal/reqtrace.Config",
	"internal/storage.SimDiskConfig",
	"internal/storage.FaultConfig",
	"internal/storage.RetryConfig",
	"internal/server.FleetConfig",
}

// knobsWithoutCaller are the exported fields allowed to have no product
// setter, each with the reason it stays a field.
var knobsWithoutCaller = map[string]string{
	"internal/storage.FaultConfig.ReadFailProb":  "the fault device is the facade's failure-test substrate: README's fault-injection stack sets it, and the buffer and storage tests do",
	"internal/storage.FaultConfig.WriteFailProb": "the fault device is the facade's failure-test substrate: README's fault-injection stack sets it, and the buffer tests do",
	"internal/storage.FaultConfig.CorruptProb":   "the fault device is the facade's failure-test substrate: README's fault-injection stack sets it, and the buffer tests do",
	"internal/storage.FaultConfig.Permanent":     "the only way to inject ErrPermanent faults, which the taxonomy tests need",
	"internal/storage.RetryConfig.MaxBackoff":    "bounds the back-off ladder for an embedder's device; the storage and buffer fault tests shorten it",
	"internal/storage.RetryConfig.Multiplier":    "the back-off ladder's growth for an embedder's device, set beside MaxBackoff",
}

// knobSetterRoots are where a product setter may live.
var knobSetterRoots = []string{"cmd", "examples", "benchmark", "internal"}

// knobStruct is one parsed config struct: its exported fields, and for a
// field whose type is another knob struct, which.
type knobStruct struct {
	fields map[string]string // field → knob struct it holds, or ""
}

// knobFile is what the resolver knows about one source file: which knob
// struct a package-qualified (or, in the declaring package, bare) type name
// means, and which its variables hold.
type knobFile struct {
	dir     string
	imports map[string]string // local package name → directory in this repository, "." for the facade
	facade  map[string]string // facade alias → knob struct
	structs map[string]*knobStruct
	vars    map[string][]string // identifier → knob structs a variable of that name holds in this file
}

// typeOf resolves a type expression to the knob struct it names, or "".
func (f *knobFile) typeOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.typeOf(e.X)
	case *ast.Ident:
		if id := f.dir + "." + e.Name; f.structs[id] != nil {
			return id
		}
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok {
			return ""
		}
		switch dir := f.imports[pkg.Name]; {
		case dir == ".":
			return f.facade[e.Sel.Name]
		case f.structs[dir+"."+e.Sel.Name] != nil:
			return dir + "." + e.Sel.Name
		}
	}
	return ""
}

// holders resolves an expression that may hold a knob struct — a variable,
// or a field chain off one — to the structs it may be.
func (f *knobFile) holders(e ast.Expr) []string {
	switch e := e.(type) {
	case *ast.Ident:
		return f.vars[e.Name]
	case *ast.SelectorExpr:
		var out []string
		for _, id := range f.holders(e.X) {
			if inner := f.structs[id].fields[e.Sel.Name]; inner != "" {
				out = append(out, inner)
			}
		}
		if out == nil {
			// p.wrapperCfg, p of a type the guard does not follow: a field
			// this file declares with a knob type, by its name.
			out = f.vars[e.Sel.Name]
		}
		return out
	}
	return nil
}

// valueType is the knob struct a value expression constructs: T{...} or &T{...}.
func (f *knobFile) valueType(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok && lit.Type != nil {
		return f.typeOf(lit.Type)
	}
	return ""
}

func (f *knobFile) bind(name *ast.Ident, id string) {
	if id != "" && name.Name != "_" {
		f.vars[name.Name] = append(f.vars[name.Name], id)
	}
}

// knobImports maps each local package name of a file to the directory of
// this repository it imports, "." for the facade.
func knobImports(file *ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if path == "bpwrapper" {
			imports[name] = "."
		} else {
			imports[name] = strings.TrimPrefix(path, "bpwrapper/")
		}
	}
	return imports
}

// parseKnobDir parses the non-test files of one directory.
func parseKnobDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	return files
}

// TestEveryKnobHasACaller is the guard. Setters are found syntactically: a
// keyed composite literal of the struct (under its own name or the
// facade's alias), or an assignment through a variable, parameter or field
// chain the file declares with that type.
func TestEveryKnobHasACaller(t *testing.T) {
	fset := token.NewFileSet()

	// The structs: exported fields, and which of them nest another knob struct.
	structs := map[string]*knobStruct{}
	for _, id := range knobStructs {
		structs[id] = &knobStruct{fields: map[string]string{}}
	}
	for _, id := range knobStructs {
		dir, typ := id[:strings.LastIndex(id, ".")], id[strings.LastIndex(id, ".")+1:]
		found := false
		for _, file := range parseKnobDir(t, fset, dir) {
			kf := &knobFile{dir: dir, imports: knobImports(file), structs: structs}
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typ {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				found = true
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							structs[id].fields[name.Name] = kf.typeOf(field.Type)
						}
					}
				}
				return false
			})
		}
		if !found {
			t.Fatalf("%s: no such struct: the guard's list is stale", id)
		}
	}

	// The facade's aliases of them.
	facade := map[string]string{}
	for _, file := range parseKnobDir(t, fset, ".") {
		kf := &knobFile{dir: ".", imports: knobImports(file), structs: structs}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
					if id := kf.typeOf(ts.Type); id != "" {
						facade[ts.Name.Name] = id
					}
				}
			}
		}
	}

	// The setters.
	setters := map[string][]string{} // struct.Field → "file:line" of each product setter
	for _, root := range knobSetterRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			kf := &knobFile{dir: filepath.ToSlash(filepath.Dir(path)), imports: knobImports(file),
				facade: facade, structs: structs, vars: map[string][]string{}}
			set := func(id, field string, at token.Pos) {
				if _, ok := structs[id].fields[field]; ok && !strings.HasPrefix(id, kf.dir+".") {
					pos := fset.Position(at)
					setters[id+"."+field] = append(setters[id+"."+field], fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
				}
			}
			// First what each name holds, then what is set through it: a
			// file's declarations need not precede their uses in walk order.
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, name := range n.Names {
						kf.bind(name, kf.typeOf(n.Type))
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if n.Type != nil {
							kf.bind(name, kf.typeOf(n.Type))
						} else if i < len(n.Values) {
							kf.bind(name, kf.valueType(n.Values[i]))
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if name, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
							kf.bind(name, kf.valueType(n.Rhs[i]))
							for _, id := range kf.holders(n.Rhs[i]) {
								kf.bind(name, id)
							}
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if n.Type == nil {
						return true
					}
					if id := kf.typeOf(n.Type); id != "" {
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									set(id, key.Name, kv.Pos())
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							for _, id := range kf.holders(sel.X) {
								set(id, sel.Sel.Name, sel.Pos())
							}
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
	}

	total := 0
	for _, id := range knobStructs {
		var fields []string
		for field := range structs[id].fields {
			fields = append(fields, field)
		}
		sort.Strings(fields)
		total += len(fields)
		for _, field := range fields {
			key := id + "." + field
			reason, allowed := knobsWithoutCaller[key]
			switch at := setters[key]; {
			case len(at) == 0 && !allowed:
				t.Errorf("%s: no non-test file outside %s sets it (looked under %s): make it a constant, or say in knobsWithoutCaller why it stays",
					key, id[:strings.LastIndex(id, ".")], strings.Join(knobSetterRoots, "/, "))
			case len(at) == 0:
				t.Logf("%-52s allowed: %s", key, reason)
			case allowed:
				t.Errorf("%s is on the allow-list but %s sets it: drop the entry", key, at[0])
			default:
				t.Logf("%-52s %d setters, first %s", key, len(at), at[0])
			}
		}
	}
	for key := range knobsWithoutCaller {
		id := key[:strings.LastIndex(key, ".")]
		if st := structs[id]; st == nil {
			t.Errorf("allow-list entry %s names no guarded struct", key)
		} else if _, ok := st.fields[key[len(id)+1:]]; !ok {
			t.Errorf("allow-list entry %s names no field", key)
		}
	}
	t.Logf("%d settable values in %d structs", total, len(knobStructs))
}

// facadeWithoutCaller are the facade names allowed no caller, each with the
// reason it stays exported.
var facadeWithoutCaller = map[string]string{
	"ErrNoUnpinnedBuffers": "Pool.Get returns it when every candidate victim is pinned",
	"ErrOverloaded":        "Pool.Get returns it when a read-only pool sheds a miss",
	"ErrQuarantineFull":    "Pool.Get returns it when the dirty quarantine is at capacity",
	"ErrTransient":         "NewFaultDevice's injected errors wrap it, and README classifies them with it",
	"ErrPermanent":         "NewFaultDevice's injected dead-sector errors wrap it",
	"ErrCorruptPage":       "NewChecksumDevice's reads return it for a page that fails its checksum",
	"ErrInvalidPage":       "devices and CacheClient return it for the invalid PageID",
	"SlotPolicy":           "the custom-policy contract README documents: the pool drives a policy by frame slot through it",
	"CheckPolicy":          "the custom-policy contract README documents: a policy's own test calls it",
}

// facadeCtor matches a constructor a facadeWithoutCaller reason cites; the
// guard requires the facade to export it, so a reason cannot lean on a
// name a facade user cannot reach.
var facadeCtor = regexp.MustCompile(`\bNew[A-Z][A-Za-z0-9]*`)

// facadeCallers lists the files whose bpwrapper.<Name> selectors count as
// callers: non-test files under cmd/ and examples/, every file under
// benchmark/, and the root package's tests.
func facadeCallers(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, root := range []string{"cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				(root != "benchmark" && strings.HasSuffix(path, "_test.go")) {
				return err
			}
			files = append(files, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, tests...)
}

// TestEveryFacadeNameHasACaller is the facade guard: every name bpwrapper.go
// exports is written as bpwrapper.<Name> by a caller facadeCallers lists, or
// is on facadeWithoutCaller with a reason.
func TestEveryFacadeNameHasACaller(t *testing.T) {
	fset := token.NewFileSet()

	exported := map[string]bool{}
	for _, file := range parseKnobDir(t, fset, ".") {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exported[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							exported[spec.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								exported[name.Name] = true
							}
						}
					}
				}
			}
		}
	}

	callers := map[string][]string{} // name → "file:line" of each use
	for _, path := range facadeCallers(t) {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := knobImports(file)
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] == "." {
					pos := fset.Position(sel.Pos())
					callers[sel.Sel.Name] = append(callers[sel.Sel.Name], fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
				}
			}
			return true
		})
	}

	var names []string
	for name := range exported {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reason, allowed := facadeWithoutCaller[name]
		switch at := callers[name]; {
		case len(at) == 0 && !allowed:
			t.Errorf("bpwrapper.%s: no cmd, example, benchmark file or root test uses it: unexport or delete it, or say in facadeWithoutCaller why it stays", name)
		case allowed && len(at) > 0:
			t.Errorf("bpwrapper.%s is on the allow-list but %s uses it: drop the entry", name, at[0])
		case allowed && strings.TrimSpace(reason) == "":
			t.Errorf("bpwrapper.%s: its allow-list entry gives no reason", name)
		case allowed:
			t.Logf("%-24s allowed: %s", name, reason)
		default:
			t.Logf("%-24s %d uses, first %s", name, len(at), at[0])
		}
	}
	for name, reason := range facadeWithoutCaller {
		if !exported[name] {
			t.Errorf("allow-list entry %s names nothing bpwrapper.go exports", name)
		}
		for _, ctor := range facadeCtor.FindAllString(reason, -1) {
			if !exported[ctor] {
				t.Errorf("allow-list entry %s: its reason cites %s, which bpwrapper.go does not export", name, ctor)
			}
		}
	}
	t.Logf("%d exported names, %d on the allow-list", len(names), len(facadeWithoutCaller))
}
