package lintx

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Fixture loading: analyzer tests run against small self-contained
// packages under a testdata/src tree (the classic analysistest
// layout), where the import path "a/b" resolves to testdata/src/a/b.
// Fixture packages may import each other and the standard library;
// nothing else.

var (
	stdOnce     sync.Once
	stdUniverse map[string]*listedPackage
	stdErr      error
)

// stdPackages lists the standard library once per process; fixture
// loads resolve stdlib imports against it.
func stdPackages() (map[string]*listedPackage, error) {
	stdOnce.Do(func() {
		pkgs, err := goList("", "std")
		if err != nil {
			stdErr = err
			return
		}
		stdUniverse = make(map[string]*listedPackage, len(pkgs))
		for _, p := range pkgs {
			stdUniverse[p.ImportPath] = p
		}
	})
	return stdUniverse, stdErr
}

// LoadFixture loads testdata/src/<path> for each given import path,
// type-checked with full Info, resolving fixture-internal imports
// from the same tree and everything else from the standard library.
func LoadFixture(testdata string, paths ...string) ([]*Package, error) {
	std, err := stdPackages()
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:        token.NewFileSet(),
		universe:    std,
		checked:     make(map[string]*types.Package),
		checking:    make(map[string]bool),
		fixtureRoot: filepath.Join(testdata, "src"),
	}
	var out []*Package
	for _, path := range paths {
		files, err := ld.parseFixtureDir(path)
		if err != nil {
			return nil, err
		}
		pkg, err := ld.check(path, &listedPackage{}, files, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// parseFixtureDir parses every .go file in testdata/src/<path>.
func (ld *loader) parseFixtureDir(path string) ([]*ast.File, error) {
	dir := filepath.Join(ld.fixtureRoot, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %s: %v", path, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture package %s: no .go files in %s", path, dir)
	}
	return ld.parseFiles(dir, names)
}
