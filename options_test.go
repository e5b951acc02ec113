package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// configStructs are the configuration surfaces of the compile service:
// the compiler's options, the search constraints, the plan cache and
// its fleet client, and the partition search.
var configStructs = []struct{ pkg, name string }{
	{"repro/t10", "Options"},
	{"repro/internal/search", "Constraints"},
	{"repro/internal/plancache", "Options"},
	{"repro/internal/plancache", "RemoteOptions"},
	{"repro/internal/scaleout", "Config"},
}

// testOnlyOptions are the fields only tests set, each a fake no
// deployment has a use for.
var testOnlyOptions = map[string]string{
	"plancache.RemoteOptions.Transport": "the tests' network fake (chaostest.Transport); programs use http.DefaultTransport",
	"plancache.RemoteOptions.Seed":      "the tests' randomness fake: a fixed backoff-jitter seed reproduces a fault schedule",
	"plancache.Options.Builder":         "how tests seal a record as a foreign build would; programs seal as DefaultBuilder",
}

// TestEveryOptionHasAProgramSetter holds the configuration surface to
// the values programs set. Every field of the configuration structs
// must be set by program code — the non-test files of the module and
// of the benchmark harness under bench/, whose disk-cache workloads are
// what sets t10.Options.CacheSalt — in a package other than the
// struct's own: as a composite-literal key or as the target of an
// assignment. A default constructor or a defaulting branch beside the
// struct is not a caller. A field only tests set is a constant in
// waiting: each one doubles the configurations the tests must cover and
// changes nothing any program runs. The exceptions are testOnlyOptions,
// with their reasons.
func TestEveryOptionHasAProgramSetter(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseProgram(fset)
	if err != nil {
		t.Fatal(err)
	}
	im := &srcImporter{fset: fset, files: files, std: importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := im.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}

	// every field of the surface, by the object go/types resolves a use
	// of it to
	fields := map[*types.Var]string{}
	for _, cs := range configStructs {
		obj := im.pkgs[cs.pkg].Scope().Lookup(cs.name)
		if obj == nil {
			t.Fatalf("%s.%s not found", cs.pkg, cs.name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = path.Base(cs.pkg) + "." + cs.name + "." + f.Name()
			}
		}
	}

	set := map[string]bool{}
	setter := func(id *ast.Ident, pkg string) {
		if v, ok := im.info.Uses[id].(*types.Var); ok && fields[v] != "" && v.Pkg().Path() != pkg {
			set[fields[v]] = true
		}
	}
	for _, p := range paths {
		for _, f := range files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						setter(id, p)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							setter(sel.Sel, p)
						}
					}
				}
				return true
			})
		}
	}

	names := make([]string, 0, len(fields))
	for _, name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reason, allowed := testOnlyOptions[name]
		switch {
		case set[name] && allowed:
			t.Errorf("%s is listed as test-only (%s), but program code sets it: drop it from testOnlyOptions", name, reason)
		case !set[name] && !allowed:
			t.Errorf("%s is set by no program: make it a constant, or give it a caller", name)
		}
	}
	for name := range testOnlyOptions {
		if !slices.Contains(names, name) {
			t.Errorf("testOnlyOptions names %s, which is no configuration field", name)
		}
	}
	t.Logf("%d configuration fields, %d of them test-only", len(names), len(testOnlyOptions))
}

// parseProgram parses the program code by import path: every non-test
// Go file this platform builds, testdata aside. bench/ is the module
// repro/bench, so its path joins like the rest.
func parseProgram(fset *token.FileSet) (map[string][]*ast.File, error) {
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (p != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	return files, err
}

// srcImporter type-checks the module's packages from the parsed files,
// once each, and leaves the standard library to the default importer.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *srcImporter) Import(p string) (*types.Package, error) {
	if _, ok := im.files[p]; !ok {
		return im.std.Import(p)
	}
	if pkg, ok := im.pkgs[p]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, im.files[p], im.info)
	im.pkgs[p] = pkg
	return pkg, err
}
