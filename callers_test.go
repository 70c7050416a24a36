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
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowlist names the exported functions and methods under internal/
// that may have no caller outside _test.go files, and the settable
// fields there that no non-test file may write, each with its reason.
// Keys are "importpath.Func", "importpath.Type.Method" or
// "importpath.Type.field".
var allowlist = map[string]string{
	"gcbench/internal/corpus.Snapshot.PoolSelect": "reference oracle: the shard " +
		"scatter, the lazy coverage search and the serve index are compared against it",
	"gcbench/internal/corpus.NewSnapshotFromRecords": "seam for serve and shard tests " +
		"that build snapshots from hand-made record lists (failed, skipped, odd keys)",
	"gcbench/internal/shard.Supervisor.Kill": "fault injection: the wire tests in " +
		"serve and shard kill a shard process to drive crash recovery",
	"gcbench/internal/graph.Graph.OutNeighbors": "reference oracles in the algorithms, " +
		"engine and gen tests walk adjacency through it; product loops read OutCSR",
	"gcbench/internal/serve.Server.searchDelay": "test hook: the concurrency tests " +
		"hold a search in its worker slot to drive coalescing, shedding and deadlines",
}

// TestExportsHaveCallers keeps shipped code reachable. The facade rule:
// every exported name in gcbench.go is used as gcbench.<Name> by an
// example, a root test or README.md — front ends inside the module
// (cmd/) import the internal packages directly instead of growing the
// facade. The internal rule: every exported function and method under
// internal/ has a caller in a non-test file somewhere in the tree
// (the module, cmd/, examples/ or the bench/ module), or implements a
// method of an interface, or is on the allowlist above. The fields rule:
// every settable field under internal/ (unwrittenFields) is written by a
// non-test file in the tree, or is on the allowlist — a setting no
// shipped caller changes is a constant, not a field.
func TestExportsHaveCallers(t *testing.T) {
	t.Run("facade", testFacadeNamesHaveCallers)
	l := newTreeLoader(".")
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}
	uncalled, unwritten := l.uncalledInternal(), l.unwrittenFields()
	t.Run("internal", func(t *testing.T) {
		reportUnlisted(t, uncalled, "has no caller outside _test.go files")
	})
	t.Run("fields", func(t *testing.T) {
		reportUnlisted(t, unwritten, "is written by no non-test file: make it a constant")
	})
	if len(allowlist) > 5 {
		t.Errorf("allowlist holds %d entries, over 5: reach the code, or delete it", len(allowlist))
	}
	for name := range allowlist {
		if !slices.Contains(uncalled, name) && !slices.Contains(unwritten, name) {
			t.Errorf("allowlist entry %s is stale: it is reached, or no longer exists", name)
		}
	}
}

func reportUnlisted(t *testing.T, found []string, complaint string) {
	t.Helper()
	for _, name := range found {
		if _, ok := allowlist[name]; !ok {
			t.Errorf("%s %s", name, complaint)
		}
	}
}

// TestUnwrittenFields runs the fields rule on a small tree, one field
// per clause: a field is flagged when its type is settable and only a
// read or a _test.go file touches it, and cleared by each form of write.
func TestUnwrittenFields(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/p/p.go": `package p

type Level int

type T struct {
	Keyed, Assigned, OpAssigned, Incremented, Addressed int
	ReadOnly, TestOnly                                  int
	Tagged                                              int ` + "`json:\"tagged\"`" + `
	Named                                               Level
	Hook                                                func()
	Slice                                               []int
}

type Pos struct{ Positional int }

type G[E any] struct{ Instantiated int }
`,
		"cmd/c/c.go": `package main

import "gcbench/internal/p"

func main() {
	t := p.T{Keyed: 1}
	t.Assigned = 1
	t.OpAssigned += 1
	t.Incremented++
	_ = &t.Addressed
	_ = t.ReadOnly
	_ = p.Pos{1}
	var g p.G[string]
	g.Instantiated = 1
}
`,
		"cmd/c/c_test.go": `package main

import "gcbench/internal/p"

var _ = p.T{TestOnly: 1}
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := newTreeLoader(root)
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}
	unwritten := l.unwrittenFields()
	for _, c := range []struct {
		field   string
		flagged bool
	}{
		{"T.Keyed", false},
		{"Pos.Positional", false},
		{"T.Assigned", false},
		{"T.OpAssigned", false},
		{"T.Incremented", false},
		{"T.Addressed", false},
		{"G.Instantiated", false},
		{"T.ReadOnly", true},
		{"T.TestOnly", true},
		{"T.Tagged", false},
		{"T.Named", true},
		{"T.Hook", true},
		{"T.Slice", false},
	} {
		t.Run(c.field, func(t *testing.T) {
			if got := slices.Contains(unwritten, "gcbench/internal/p."+c.field); got != c.flagged {
				t.Fatalf("flagged = %t, want %t (flagged: %v)", got, c.flagged, unwritten)
			}
		})
	}
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
	root  string // the repository root
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // by import path, module packages only
	files map[string][]*ast.File
	info  *types.Info
}

func newTreeLoader(root string) *treeLoader {
	return &treeLoader{
		root:  root,
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
	dir = filepath.Join(l.root, dir)
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
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p, err = filepath.Rel(l.root, p); err != nil {
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

// unwrittenFields returns, sorted, the settable struct fields declared
// under internal/ that no non-test file in the tree writes: fields of a
// basic type, a named type over one, or a func type, without a json tag.
// A write is a keyed or positional composite literal, an assignment or
// op-assignment, ++ or --, or taking the field's address. Such a field
// holds its zero value in every shipped run, so the default its zero
// selects is a constant and the field a knob only tests turn.
func (l *treeLoader) unwrittenFields() []string {
	declared := map[*types.Var]string{}
	for path, files := range l.files {
		if !strings.HasPrefix(path, "gcbench/internal/") {
			continue
		}
		for _, f := range files {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						if hasJSONTag(fld.Tag) {
							continue
						}
						for _, id := range fld.Names {
							v := l.info.Defs[id].(*types.Var)
							switch v.Type().Underlying().(type) {
							case *types.Basic, *types.Signature:
								typ, ok := owner[n]
								if !ok {
									typ = "struct@" + filepath.Base(l.fset.Position(n.Pos()).String())
								}
								declared[v] = path + "." + typ + "." + id.Name
							}
						}
					}
				}
				return true
			})
		}
	}
	written := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := l.info.Uses[sel.Sel].(*types.Var); ok {
				delete(declared, v.Origin())
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if v, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								delete(declared, v.Origin())
							}
						} else {
							delete(declared, st.Field(i).Origin())
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						written(e)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, name := range declared {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func hasJSONTag(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, err := strconv.Unquote(tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(s).Lookup("json")
	return ok
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
