package repro

import (
	"bufio"
	"errors"
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

// surfaceKept lists the exported names that stay without a non-test
// reader, each with its reason. Names are "pkg.Name", "pkg.Type.Method" or
// "pkg.Type.Field", pkg being the import path inside the module.
var surfaceKept = map[string]string{
	"internal/obs.Exposition.Value":    "the parsed exposition's lookup, shared by the tests of obs, resd and reswire",
	"internal/reswire.Client.QuotaGet": "a documented wire op: removing it is a protocol revision",
	"internal/reswire.Client.QuotaSet": "a documented wire op: removing it is a protocol revision",
	"internal/reswire.Client.Snapshot": "a documented wire op: removing it is a protocol revision",
}

// TestExportedSurfaceHasReaders type-checks every non-test package of the
// module and fails on each exported name that no non-test code reads: a
// package-level object, a method of a named type (one that satisfies an
// interface with it is exempt), or a struct field that is neither set nor
// read (tagged fields, which an encoder reads, and embedded ones are
// exempt). Such a name is reached by tests alone: delete it, move it into
// the test that needs it, or unexport it.
func TestExportedSurfaceHasReaders(t *testing.T) {
	t.Parallel()
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, path := range l.paths {
		pkg := l.pkgs[path]
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		if rel == "" {
			rel = l.module
		}
		report := func(name string) { orphans = append(orphans, name) }
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !l.used[obj] {
				report(rel + "." + name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.used[m] && !l.satisfies(named, m.Name()) {
					report(rel + "." + name + "." + m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Exported() && !f.Embedded() && st.Tag(i) == "" && !l.used[f] {
						report(rel + "." + name + "." + f.Name())
					}
				}
			}
		}
	}
	sort.Strings(orphans)
	found := map[string]bool{}
	for _, name := range orphans {
		found[name] = true
		if surfaceKept[name] == "" {
			t.Errorf("%s has no non-test reader", name)
		}
	}
	for name := range surfaceKept {
		if !found[name] {
			t.Errorf("%s is kept as readerless but has a reader, or is gone: drop it from surfaceKept", name)
		}
	}
}

// moduleLoader type-checks the module's packages from source, standard
// library included, so that every package shares one set of objects.
type moduleLoader struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]*build.Package // by import path
	paths  []string                  // the module's packages, sorted
	pkgs   map[string]*types.Package
	used   map[types.Object]bool // objects some non-test file reads or sets
	ifaces map[string][]*types.Interface
}

// loadModule type-checks every package of the module rooted in the
// working directory and records what their non-test files use.
func loadModule() (*moduleLoader, error) {
	module, err := modulePath("go.mod")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		module: module, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		dirs: map[string]*build.Package{}, pkgs: map[string]*types.Package{},
		used:   map[types.Object]bool{},
		ifaces: map[string][]*types.Interface{},
	}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		path := module
		if p != "." {
			path += "/" + filepath.ToSlash(p)
		}
		l.dirs[path] = bp
		l.paths = append(l.paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(l.paths)
	for _, path := range l.paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	l.collectInterfaces(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		l.collectInterfaces(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, path := range l.paths {
		walk(l.pkgs[path])
	}
	return l, nil
}

// Import type-checks a module package from its non-test files, records
// what they use, and hands any other path to the standard library's
// source importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	bp, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		l.use(obj)
	}
	for _, sel := range info.Selections {
		l.use(sel.Obj())
	}
	// An unkeyed struct literal sets every field.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 || info.Types[lit].Type == nil {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := info.Types[lit].Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					l.use(st.Field(i))
				}
			}
			return true
		})
	}
	l.pkgs[path] = p
	return p, nil
}

// use marks obj, or the generic declaration it instantiates, as used.
func (l *moduleLoader) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	l.used[obj] = true
}

// collectInterfaces indexes the scope's non-generic named interfaces by
// the names of their methods.
func (l *moduleLoader) collectInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			l.ifaces[m] = append(l.ifaces[m], iface)
		}
	}
}

// satisfies reports whether named, or a pointer to it, implements an
// interface that declares a method called method. An error's Is, As and
// Unwrap count too: package errors asserts them through interfaces it
// declares inside its functions.
func (l *moduleLoader) satisfies(named *types.Named, method string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	implements := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
	}
	if method == "Is" || method == "As" || method == "Unwrap" {
		if implements(types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
			return true
		}
	}
	for _, iface := range l.ifaces[method] {
		if implements(iface) {
			return true
		}
	}
	return false
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", errors.New(gomod + ": no module line")
}
