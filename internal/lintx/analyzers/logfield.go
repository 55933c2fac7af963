package analyzers

import (
	"go/ast"
	"strings"

	"repro/internal/lintx"
)

// LogField keeps the service spine's operational output structured: in
// internal/studysvc and cmd/ewserve, every log line is a JSON record
// written through the slog.Logger the binary configures — the request
// and run lines carry their span's ids. A raw fmt.Print*/log.Print*
// there bypasses that logger, loses the ids, and tears a hole in what
// an operator can grep; so does a package-level slog.Info & co., which
// writes through the process default logger instead of the configured
// one. The ban covers those implicit-destination printers only:
// fmt.Fprintf to an explicit writer stays legal (it is how CLIs in
// other packages talk to users), as do methods on a *slog.Logger and
// everything in test files.
var LogField = &lintx.Analyzer{
	Name: "logfield",
	Doc:  "studysvc and ewserve must log through the configured slog.Logger, not raw fmt/log printers or slog's package-level functions",
	Run:  runLogField,
}

// logFieldPackages are the [penultimate, last] import-path segment
// pairs the rule applies to: the service spine, where structured
// request-scoped logging is the contract, plus the tracer it carries —
// tracex runs inside every instrumented request, so a stray printer
// there would interleave raw text with the service's JSON stream.
var logFieldPackages = [][2]string{
	{"internal", "studysvc"},
	{"internal", "tracex"},
	{"cmd", "ewserve"},
}

// bannedPrinters maps package name → the package-level printers that
// write to an implicit destination: stdout/stderr, or slog's process
// default logger. fmt's F-variants take a writer and are deliberately
// absent.
var bannedPrinters = map[string][]string{
	"fmt": {"Print", "Printf", "Println"},
	"log": {"Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln"},
	"slog": {"Debug", "DebugContext", "Info", "InfoContext", "Warn", "WarnContext",
		"Error", "ErrorContext", "Log", "LogAttrs"},
}

func runLogField(pass *lintx.Pass) error {
	segs := pathSegments(pass.Pkg.Path())
	if len(segs) < 2 {
		return nil
	}
	tail := [2]string{segs[len(segs)-2], segs[len(segs)-1]}
	applies := false
	for _, want := range logFieldPackages {
		if tail == want {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			names, banned := bannedPrinters[fn.Pkg().Name()]
			if !banned {
				return true
			}
			for _, name := range names {
				if fn.Name() == name && isPkgFunc(pass.Info, call, fn.Pkg().Name(), name) {
					pass.Reportf(call.Pos(), "%s.%s in %s: log through the configured slog.Logger so the line keeps its ids and JSON structure",
						fn.Pkg().Name(), fn.Name(), strings.Join(tail[:], "/"))
					break
				}
			}
			return true
		})
	}
	return nil
}
