// Command ewlint runs the project's invariant analyzers (determinism,
// memokey, ctxhygiene, logfield — see DESIGN.md §10) over the named
// package patterns, multichecker-style:
//
//	ewlint [-run name,name] [-list] [packages]
//
// With no patterns it lints ./... . Exit status: 0 clean, 1 findings,
// 2 usage or load error. Suppress a finding with an in-line
// //lint:ignore <analyzer> <reason> directive on (or directly above)
// the flagged line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lintx"
	"repro/internal/lintx/analyzers"
)

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers.All()
	if *runList != "" {
		selected = selected[:0]
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			a := analyzers.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "ewlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lintx.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ewlint: %v\n", err)
		os.Exit(2)
	}

	// Every registered analyzer stays a valid //lint:ignore target even
	// when -run filters the active set, so a partial run never flags
	// directives aimed at the analyzers it skipped.
	var known []string
	for _, a := range analyzers.All() {
		known = append(known, a.Name)
	}
	diags, err := lintx.RunAnalyzers(pkgs, selected, known...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ewlint: %v\n", err)
		os.Exit(2)
	}
	if len(diags) == 0 {
		fmt.Printf("ewlint: %d packages clean\n", len(pkgs))
		return
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Printf("%s: [%s] %s\n", pos, d.Analyzer, d.Message)
	}
	fmt.Printf("ewlint: %d findings\n", len(diags))
	os.Exit(1)
}
