package lintx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/core", or "p_test" for external tests)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir           string
	ImportPath    string
	Name          string
	Standard      bool
	GoFiles       []string
	TestGoFiles   []string
	XTestGoFiles  []string
	Imports       []string
	TestImports   []string
	XTestImports  []string
	ImportMap     map[string]string
	Incomplete    bool
	Error         *struct{ Err string }
	ForTest       string
	DepsErrors    []*struct{ Err string }
	IgnoredGoFile []string
}

// goList runs `go list -json` with the given arguments in dir and
// decodes the JSON stream. CGO is disabled so every package resolves
// to pure-Go sources the type checker can consume.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// loader type-checks packages from source, memoized by resolved
// import path, using the dependency universe one `go list -deps`
// call described.
type loader struct {
	fset     *token.FileSet
	universe map[string]*listedPackage // resolved import path -> listing
	checked  map[string]*types.Package
	checking map[string]bool // import-cycle guard
	// fixtureRoot, when set, resolves import paths missing from the
	// universe against a testdata/src tree (fixture loads only).
	fixtureRoot string
}

// Load lists the packages matching patterns (relative to dir) and
// returns them parsed and type-checked, in-package test files
// included; external test packages ("foo_test") load as additional
// entries. Any parse or type error aborts the load: the linter only
// runs on trees the compiler would accept.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// One more list call closes the dependency universe over the
	// targets and their test imports, so every import below resolves
	// without shelling out again.
	depPatterns := make([]string, 0, len(targets))
	seen := make(map[string]bool)
	addDep := func(p string) {
		if p != "C" && p != "unsafe" && !seen[p] {
			seen[p] = true
			depPatterns = append(depPatterns, p)
		}
	}
	for _, t := range targets {
		addDep(t.ImportPath)
		for _, imp := range t.TestImports {
			addDep(imp)
		}
		for _, imp := range t.XTestImports {
			addDep(imp)
		}
	}
	sort.Strings(depPatterns)
	deps, err := goList(dir, append([]string{"-deps"}, depPatterns...)...)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:     token.NewFileSet(),
		universe: make(map[string]*listedPackage, len(deps)),
		checked:  make(map[string]*types.Package),
		checking: make(map[string]bool),
	}
	for _, d := range deps {
		ld.universe[d.ImportPath] = d
	}

	var out []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", t.ImportPath, t.Error.Err)
		}
		// The package itself, with its in-package test files merged —
		// the same unit `go test` compiles.
		files, err := ld.parseFiles(t.Dir, append(append([]string{}, t.GoFiles...), t.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		pkg, err := ld.check(t.ImportPath, t, files, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if len(t.XTestGoFiles) > 0 {
			xfiles, err := ld.parseFiles(t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			// The external tests import the package as `go test`
			// builds it, in-package test files (export_test.go)
			// included.
			xpkg, err := ld.check(t.ImportPath+"_test", t, xfiles, pkg.Types)
			if err != nil {
				return nil, err
			}
			out = append(out, xpkg)
		}
	}
	return out, nil
}

func (ld *loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one target package (reporting Info) against the
// loaded universe. A non-nil under is the package an external test
// package tests; its import path resolves to under instead of the
// package's non-test files.
func (ld *loader) check(path string, lp *listedPackage, files []*ast.File, under *types.Package) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: &mapImporter{ld: ld, importMap: lp.ImportMap, under: under}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: ld.fset, Files: files, Types: tpkg, Info: info}, nil
}

// importDep type-checks (and memoizes) a dependency package from
// source. Dependencies are checked without their test files and
// without Info — only their exported type structure matters to the
// targets.
func (ld *loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	lp, ok := ld.universe[path]
	if !ok && ld.fixtureRoot == "" {
		return nil, fmt.Errorf("package %s not in the go list universe", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)
	var files []*ast.File
	var err error
	if ok {
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", path, lp.Error.Err)
		}
		files, err = ld.parseFiles(lp.Dir, lp.GoFiles)
	} else {
		lp = &listedPackage{}
		files, err = ld.parseFixtureDir(path)
	}
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: &mapImporter{ld: ld, importMap: lp.ImportMap}}
	pkg, err := conf.Check(path, ld.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking dependency %s: %v", path, err)
	}
	ld.checked[path] = pkg
	return pkg, nil
}

// mapImporter resolves one importing package's import strings —
// through its go list ImportMap (std vendoring) — into type-checked
// packages from the shared loader.
type mapImporter struct {
	ld        *loader
	importMap map[string]string
	under     *types.Package // see check
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if m.under != nil && path == m.under.Path() {
		return m.under, nil
	}
	return m.ld.importDep(path)
}
