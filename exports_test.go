package upcbh_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that
// stay without a product caller, each with the reason it stays. A key is
// "pkg.Name" for a package-level object and "pkg.Type.Method" for a
// method. The oracles are production code on purpose: tests in other
// packages compare the product against them.
var exportAllowlist = map[string]string{
	"arena.Arena.Bytes":          "placement oracle: core's native tests check the flat tree's arrays lie inside their mapping",
	"arena.Arena.Used":           "placement oracle: core's native tests check every thread's arena holds its builder segment",
	"core.Level.MarshalJSON":     "json.Marshaler: Options and Result carry levels by name",
	"core.Level.UnmarshalJSON":   "json.Unmarshaler: POST /sims and checkpoint states decode level names",
	"nbody.MaxAccError":          "oracle: octree's tests score the tree against nbody.Direct with it",
	"octree.Solve":               "oracle: the pointer-tree reference solve that core and octree tests compare forces against",
	"octree.Tree.Verify":         "oracle: the pointer tree's structural invariants, which the flat tree tests check against",
	"upc.ExecMode.MarshalJSON":   "json.Marshaler: Options and Result carry the mode by name",
	"upc.ExecMode.UnmarshalJSON": "json.Unmarshaler: POST /sims and checkpoint states decode mode names",
	"upc.Ref.String":             "fmt.Stringer: core's tree-verification panics print refs with %v",
	"verify.ForceErrors":         "oracle: the differential matrix scores every run's forces with it",
}

// TestExportsHaveProductCallers keeps internal/ free of exported API that
// only tests use. It type-checks the module's non-test files plus
// benchmark/ (the product: cmd/, examples/, the upcbh facade, the
// benchmark harness and internal/ itself) and fails on every exported
// identifier under internal/ that none of them uses. A helper only tests
// need belongs in a _test.go file.
func TestExportsHaveProductCallers(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			imp := "upcbh"
			if dir != "." {
				imp += "/" + filepath.ToSlash(dir)
			}
			dirs[imp] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		dir := dirs[path]
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var fs []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, fs, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	for path := range dirs {
		if _, err := check(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}

	var orphans []string
	seen := map[string]bool{}
	for path, p := range checked {
		if !strings.HasPrefix(path, "upcbh/internal/") {
			continue
		}
		for key, obj := range exported(p) {
			seen[key] = true
			_, allowed := exportAllowlist[key]
			switch {
			case used[obj] && allowed:
				t.Errorf("%s has a product caller now: drop it from exportAllowlist", key)
			case !used[obj] && !allowed:
				orphans = append(orphans, key)
			}
		}
	}
	for key := range exportAllowlist {
		if !seen[key] {
			t.Errorf("exportAllowlist names %s, which is not an exported identifier under internal/", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no caller outside _test.go files "+
			"(delete them, move them into a _test.go file, or allowlist them with a reason):\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exported returns p's exported package-level objects and the exported
// methods of its named types, keyed as in exportAllowlist.
func exported(p *types.Package) map[string]types.Object {
	out := map[string]types.Object{}
	scope := p.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out[p.Name()+"."+name] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out[p.Name()+"."+name+"."+m.Name()] = m
			}
		}
	}
	return out
}

// origin maps a use of an instantiated generic function, method or
// field back to the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
