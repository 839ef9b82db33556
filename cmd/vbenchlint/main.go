// Command vbenchlint runs the repository's static analyzers
// (hotalloc, locksafe, metricname, spanpair, statemachine — see
// docs/LINT.md).
//
// It speaks two protocols:
//
//   - As a vet tool: `go vet -vettool=$(which vbenchlint) ./...`.
//     The go command invokes it once per package with a JSON config
//     file argument; this is what `make lint` uses and what keeps
//     results cached per package.
//
//   - Standalone: `vbenchlint [-tags list] [-only names] [-json]
//     [patterns]` loads the packages itself (via `go list -export`)
//     and checks them in one process. Defaults to ./... in the
//     current module. With -json, diagnostics go to stdout as one
//     sorted array of {file, line, col, analyzer, message} objects
//     (CI uploads this as a build artifact).
//
// Exit status: 0 clean, 2 findings reported, 1 internal error —
// matching go vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vbench/internal/lint"
	"vbench/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet handshake: print the tool identity and exit.
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full") {
		if err := analysis.PrintVersion(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vbenchlint: %v\n", err)
			return 1
		}
		return 0
	}
	// go vet flag discovery: report the tool's analyzer flags (none).
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return 0
	}
	// go vet per-package invocation: the sole argument is a *.cfg file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return analysis.RunVet(args[0], lint.Analyzers())
	}

	fs := flag.NewFlagSet("vbenchlint", flag.ContinueOnError)
	tags := fs.String("tags", "", "build tags, passed to go list")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout (always an array, [] when clean)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "vbenchlint: unknown analyzer %q\n", name)
				return 1
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var extra []string
	if *tags != "" {
		extra = append(extra, "-tags", *tags)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbenchlint: %v\n", err)
		return 1
	}
	pkgs, err := analysis.Load(cwd, extra, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbenchlint: %v\n", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbenchlint: %v\n", err)
		return 1
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "vbenchlint: %v\n", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) == 0 {
		return 0
	}
	return 2
}

// jsonDiag is the machine-readable form of one finding. The fields
// and their order are a stable interface for CI artifact consumers.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics (already position-sorted by
// analysis.Run) as one indented JSON array.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
