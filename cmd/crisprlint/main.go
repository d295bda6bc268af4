// Command crisprlint is the repository's invariant checker: a
// multichecker of fourteen custom analyzers that enforce the contracts
// the code base otherwise keeps only by convention. Eight are syntactic
// (enginereg, dnaalphabet, statsdiscipline, errwrap, clockguard,
// ctxflow, logdiscipline, deferloop): engine-registry parity behind the
// paper's "identical site set" claim, the internal/dna alphabet
// boundary, populated execution stats, the error-prefix/%w convention,
// deterministic modeled-platform timing, context propagation through
// the scan pipeline, library logging discipline, and no accumulating
// defers in loops. Four are type-checked (hotpath, lockorder,
// loopinvariant, spanend): allocation- and copy-freedom in
// //crisprlint:hotpath-annotated scan kernels, documented
// `guarded by <mu>` mutex discipline, loop-invariant work trapped
// inside hot loops, and every started trace span ended. Two are
// interprocedural (goroutineleak, lockcycle), built on a module-wide
// call graph: provable goroutine termination paths and an acyclic
// module-wide lock-order graph.
//
// Usage (the named packages, default ./..., are loaded and analyzed
// together, so the cross-package checks see the whole module):
//
//	go run ./cmd/crisprlint ./...
//
// Exit status: 0 clean, 3 findings, 1 operational error (mirroring
// x/tools multicheckers). `-json` switches the output to a JSON array
// of findings for CI annotation.
//
// `crisprlint help` lists the analyzers with their documentation. A
// finding can be suppressed with a trailing or preceding comment
// `//crisprlint:allow <analyzer> reason`; files with a standard
// `// Code generated ... DO NOT EDIT.` header are never flagged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"

	"github.com/cap-repro/crisprscan/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crisprlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	rest := fs.Args()
	if len(rest) == 1 && rest[0] == "help" {
		printHelp(stdout)
		return 0
	}
	return lint(rest, *jsonFlag, stdout, stderr)
}

// jsonFinding is the `-json` wire shape: one object per diagnostic,
// positions split out so CI annotators need no parsing.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func lint(patterns []string, asJSON bool, stdout, stderr io.Writer) int {
	fset := token.NewFileSet()
	prog, err := analysis.Load(fset, ".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := analysis.RunAnalyzers(fset, prog, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		findings = append(findings, jsonFinding{File: p.Filename, Line: p.Line, Column: p.Column, Analyzer: d.Analyzer, Message: d.Message})
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "crisprlint: %d finding(s)\n", len(findings))
		return 3
	}
	return 0
}

func printHelp(w io.Writer) {
	analyzers := analysis.All()
	sort.Slice(analyzers, func(i, j int) bool { return analyzers[i].Name < analyzers[j].Name })
	fmt.Fprintln(w, "crisprlint checks the crisprscan repository invariants:")
	fmt.Fprintln(w)
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-16s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "usage: crisprlint [-json] [packages]   (default ./...)")
}
