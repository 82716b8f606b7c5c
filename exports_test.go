package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported functions and methods that no non-test
// code calls but that stay, each with the reason.
var keptExports = map[string]string{
	"repro/internal/fortran.MustParse":             "a helper that the tests of many packages use",
	"(repro/internal/obs.SpanRecord).Attr":         "the read side of Span.Attr, for a loaded trace",
	"(*repro/internal/perfmodel.Analysis).Report":  "the oracle of TestReportsPinned",
	"(*repro/internal/search.FaultInjector).Calls": "part of the fault harness",
}

// TestNoUncalledExports type-checks every non-test package of the
// module and of bench/ and fails on an exported function or method that
// nothing outside a _test.go file uses. A method also counts as used
// when its type satisfies an interface, named or anonymous, with the
// method: one the program mentions, one an imported package declares,
// or Unwrap's, which errors declares inside a function. A generic
// method counts through its origin. keptExports names what stays.
func TestNoUncalledExports(t *testing.T) {
	l := newExportLoader(t)
	for _, path := range l.order {
		l.load(path)
	}

	used := make(map[*types.Func]bool)
	for _, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			used[f.Origin()] = true
		}
	}
	byMethod := l.interfaces()

	var unused []string
	kept := make(map[string]bool)
	for _, obj := range l.info.Defs {
		f, ok := obj.(*types.Func)
		if !ok || !f.Exported() || used[f] {
			continue
		}
		recv := f.Type().(*types.Signature).Recv()
		if recv != nil && (types.IsInterface(recv.Type()) || satisfies(recv.Type(), byMethod[f.Name()])) {
			continue
		}
		if name := f.FullName(); keptExports[name] != "" {
			kept[name] = true
		} else {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported, but only tests use it: delete it, or name it in keptExports with the reason", name)
	}
	for name := range keptExports {
		if !kept[name] {
			t.Errorf("keptExports names %s, which is gone or now used", name)
		}
	}
}

// exportLoader type-checks the module's and bench's packages from
// source into one types.Info, and imports the standard library.
type exportLoader struct {
	t     *testing.T
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	dirs  map[string]string // import path -> directory
	order []string          // import paths, in directory order
	pkgs  map[string]*types.Package
}

func newExportLoader(t *testing.T) *exportLoader {
	fset := token.NewFileSet()
	l := &exportLoader{
		t: t, fset: fset,
		info: &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: make(map[string]string), pkgs: make(map[string]*types.Package),
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != "." && dir != "bench" {
			return filepath.SkipDir // another module
		}
		if len(l.goFiles(dir)) > 0 {
			path := "repro"
			if dir != "." {
				path += "/" + filepath.ToSlash(dir)
			}
			l.dirs[path] = dir
			l.order = append(l.order, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// goFiles lists dir's non-test Go files that the default build takes.
func (l *exportLoader) goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			l.t.Fatal(err)
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

// Import imports a package of the module or bench from source, and any
// other from the standard library.
func (l *exportLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path), nil
	}
	return l.std.Import(path)
}

// load type-checks the package at path once.
func (l *exportLoader) load(path string) *types.Package {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	var files []*ast.File
	for _, name := range l.goFiles(l.dirs[path]) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = p
	return p
}

// interfaces indexes by method name every interface the loaded code
// mentions, every named interface of a package it imports, directly or
// not, error, and the Unwrap interface errors declares in a function.
func (l *exportLoader) interfaces() map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	for _, tv := range l.info.Types {
		add(tv.Type)
	}
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	return byMethod
}

// satisfies reports whether recv, or a pointer to it, implements one of
// the interfaces. A generic receiver implements none: only its uses
// count.
func satisfies(recv types.Type, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
