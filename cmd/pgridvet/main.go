// Command pgridvet runs the project's custom static-analysis suite
// (internal/lint): lockrpc, atomicfield, ctxflow and senterr.
//
//	pgridvet [-tests=false] [-<analyzer>...] [packages]
//
// It loads packages itself via `go list -deps -export`, the same driver
// the analyzer fixture tests use. Naming one or more analyzer flags narrows
// the run to those analyzers. The exit code is 0 when clean, 1 on a driver
// error and 2 when diagnostics were reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"pgrid/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	all := lint.All()
	fs := flag.NewFlagSet("pgridvet", flag.ContinueOnError)
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer: "+a.Doc)
	}
	tests := fs.Bool("tests", true, "include _test.go files and test packages")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var selected []*lint.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if selected == nil {
		selected = all
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.RunPatterns("", selected, patterns, *tests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgridvet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
