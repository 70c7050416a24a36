package gcbench_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// allowlist names the exported functions and methods under internal/
// that may have no caller outside _test.go files, each with its reason.
// Keys are "importpath.Func" or "importpath.Type.Method".
var allowlist = map[string]string{
	"gcbench/internal/corpus.Snapshot.PoolSelect": "reference oracle: the shard " +
		"scatter, the lazy coverage search and the serve index are compared against it",
	"gcbench/internal/corpus.NewSnapshotFromRecords": "seam for serve and shard tests " +
		"that build snapshots from hand-made record lists (failed, skipped, odd keys)",
	"gcbench/internal/shard.Supervisor.Kill": "fault injection: the wire tests in " +
		"serve and shard kill a shard process to drive crash recovery",
	"gcbench/internal/graph.Graph.OutNeighbors": "reference oracles in the algorithms, " +
		"engine and gen tests walk adjacency through it; product loops read OutCSR",
}

// TestExportsHaveCallers keeps shipped code reachable. The facade rule:
// every exported name in gcbench.go is used as gcbench.<Name> by an
// example, a root test or README.md — front ends inside the module
// (cmd/) import the internal packages directly instead of growing the
// facade. The internal rule: every exported function and method under
// internal/ has a caller in a non-test file somewhere in the tree
// (the module, cmd/, examples/ or the bench/ module), or implements a
// method of an interface, or is on the allowlist above.
func TestExportsHaveCallers(t *testing.T) {
	t.Run("facade", testFacadeNamesHaveCallers)
	t.Run("internal", testInternalExportsHaveCallers)
}

func testFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "gcbench.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	examples, err := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	ref := regexp.MustCompile(`\bgcbench\.([A-Z]\w*)`)
	for _, p := range append(append(examples, tests...), "README.md") {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(b, -1) {
			used[string(m[1])] = true
		}
	}
	for _, n := range names {
		if ast.IsExported(n) && !used[n] {
			t.Errorf("gcbench.%s has no caller in examples/, a root test or README.md", n)
		}
	}
}

func testInternalExportsHaveCallers(t *testing.T) {
	l := newTreeLoader()
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}
	missing := l.uncalledInternal()
	for _, name := range missing {
		if _, ok := allowlist[name]; !ok {
			t.Errorf("%s has no caller outside _test.go files", name)
		}
	}
	for name := range allowlist {
		if i := sort.SearchStrings(missing, name); i == len(missing) || missing[i] != name {
			t.Errorf("allowlist entry %s is stale: it has a caller, or no longer exists", name)
		}
	}
}

// stdlibProtocols are interfaces the standard library asserts inside
// function bodies, where its export data does not show them.
const stdlibProtocols = `package protocols
import "net/http"
type responseUnwrapper interface{ Unwrap() http.ResponseWriter }
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// treeLoader type-checks the non-test Go files of this module and of
// the bench/ module (which imports this one's internal packages) from
// source, once each; the standard library comes from export data.
type treeLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // by import path, module packages only
	files map[string][]*ast.File
	info  *types.Info
}

func newTreeLoader() *treeLoader {
	return &treeLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
}

// dirOf maps a module import path to its directory, relative to the
// repository root.
func dirOf(path string) (string, bool) {
	switch {
	case path == "gcbench":
		return ".", true
	case strings.HasPrefix(path, "gcbench/"):
		return strings.TrimPrefix(path, "gcbench/"), true
	}
	return "", false
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if _, ok := dirOf(path); !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	return l.check(path)
}

func (l *treeLoader) check(path string) (*types.Package, error) {
	dir, _ := dirOf(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// loadAll checks every package directory in the tree.
func (l *treeLoader) loadAll() error {
	paths := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			path := "gcbench"
			if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
				path += "/" + dir
			}
			paths[path] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	for path := range paths {
		if _, err := l.Import(path); err != nil {
			return err
		}
	}
	return nil
}

// uncalledInternal returns, sorted, the exported functions and methods
// declared under internal/ that nothing outside their own body refers
// to and that implement no interface method.
func (l *treeLoader) uncalledInternal() []string {
	declared := map[*types.Func]bool{}
	for path, files := range l.files {
		if !strings.HasPrefix(path, "gcbench/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declared[l.info.Defs[fd.Name].(*types.Func)] = true
				}
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var self types.Object // a function's own body does not call it
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := l.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							delete(declared, fn.Origin())
						}
					}
					return true
				})
			}
		}
	}
	ifaces, generic := l.interfaces()
	var out []string
	for fn := range declared {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && (generic[fn.Name()] || implementsAny(recv.Type(), fn.Name(), ifaces)) {
			continue
		}
		out = append(out, funcName(fn))
	}
	sort.Strings(out)
	return out
}

// interfaces collects, by method name, every interface type visible in
// the tree: named ones in module and standard-library packages, literal
// ones in module code, and stdlibProtocols. A generic interface such as
// engine.Program[S] is satisfied only by instantiations, which go/types
// cannot test against an uninstantiated receiver, so its method names
// are returned in generic and match by name alone.
func (l *treeLoader) interfaces() (byName map[string][]*types.Interface, generic map[string]bool) {
	byName, generic = map[string][]*types.Interface{}, map[string]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		n, _ := t.(*types.Named)
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			if n != nil && n.TypeParams().Len() > 0 {
				generic[name] = true
			}
			byName[name] = append(byName[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
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
	for _, tv := range l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	f, err := parser.ParseFile(l.fset, "protocols.go", stdlibProtocols, 0)
	if err != nil {
		panic(err)
	}
	p, err := (&types.Config{Importer: l}).Check("protocols", l.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	walk(p)
	return byName, generic
}

func implementsAny(recv types.Type, method string, ifaces map[string][]*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces[method] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// funcName spells fn as an allowlist key.
func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return fn.Pkg().Path() + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name()
}
