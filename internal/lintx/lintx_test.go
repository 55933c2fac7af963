package lintx_test

import (
	"go/ast"
	"strings"
	"testing"

	"repro/internal/lintx"
)

// flagFuncs reports every function declaration: a probe analyzer for
// exercising the directive machinery.
var flagFuncs = &lintx.Analyzer{
	Name: "flagfuncs",
	Doc:  "reports every function declaration (test probe)",
	Run: func(pass *lintx.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

// TestDirectives pins the suppression contract: a malformed or
// unknown-analyzer directive is reported and suppresses nothing,
// while a well-formed one silences the following line.
func TestDirectives(t *testing.T) {
	pkgs, err := lintx.LoadFixture("testdata", "dirfix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := lintx.RunAnalyzers(pkgs, []*lintx.Analyzer{flagFuncs})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		`lintx: malformed //lint:ignore: want "//lint:ignore <analyzer|all> <reason>"`,
		"flagfuncs: func missingReason",
		`lintx: //lint:ignore names unknown analyzer "nosuchanalyzer"`,
		"flagfuncs: func unknownAnalyzer",
		// validSuppression is silenced by its "all" directive.
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics mismatch\n got: %q\nwant: %q", got, want)
	}
}

// TestLoadModulePackage pins the go list loader against the real
// module: the package type-checks from source with full type info.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := lintx.Load("../..", "repro/internal/randx")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	p := pkgs[0]
	if p.Types.Name() != "randx" || len(p.Files) == 0 || p.Info == nil {
		t.Errorf("incomplete load: name=%q files=%d", p.Types.Name(), len(p.Files))
	}
	if p.Types.Scope().Lookup("New") == nil {
		t.Errorf("randx.New not found in type-checked scope")
	}
}

// TestLoadExternalTestSeesExportTest pins that an external test
// package imports its package with the in-package test files, as
// `go test` builds it: ocr's external tests call ReferenceRecognize,
// which only export_test.go declares.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	pkgs, err := lintx.Load("../..", "repro/internal/ocr")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].Path != "repro/internal/ocr_test" {
		t.Fatalf("want ocr and ocr_test, got %d packages", len(pkgs))
	}
}
