// Package analysis is a self-contained static-analysis framework for
// the crisprscan repository, modeled on golang.org/x/tools/go/analysis
// but built only on the standard library so the repo stays
// dependency-free. It hosts the crisprlint analyzers that turn the
// repo's cross-cutting invariants — engine-registry parity, DNA
// alphabet hygiene, stats discipline, error-wrapping convention,
// deterministic timing models, and context propagation through the
// scan pipeline — into machine-checked rules.
//
// The framework has four tiers. The first-tier analyzers are purely
// syntactic (AST + token positions). The typed tier (typecheck.go)
// adds best-effort go/types information, resolved by the stdlib source
// importer, for hotpath (allocation freedom in annotated scan
// kernels), lockorder (documented mutex discipline), loopinvariant
// (loop-invariant computation in hot loops, gated by must-analysis)
// and spanend (every started span ended). The interprocedural tier
// (callgraph.go) builds a conservative module-wide call graph on top
// of the typed tier and derives per-function facts — never returns,
// transitive mutex acquisitions, lock-order edges — for goroutineleak
// and lockcycle. The fourth, compiler-feedback tier lives outside the
// analyzer list: internal/perfgate and cmd/perfgate gate the
// compiler's own escape, inlining and bounds-check verdicts for the
// same hotpath spans against a justified baseline. The driver is
// cmd/crisprlint, which loads every named package (default ./...) into
// one Program before any analyzer runs, with no network or third-party
// dependencies.
//
// Suppression: a diagnostic can be silenced with a directive comment
//
//	//crisprlint:allow <analyzer>[,<analyzer>...] reason...
//
// placed on the flagged line or the line immediately above it. The
// reason text is free-form but encouraged; the directive without an
// analyzer name is invalid and suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //crisprlint:allow directives.
	Name string
	// Doc is the one-paragraph description shown by `crisprlint help`.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Package is the syntax of one loaded package.
type Package struct {
	// Path is the import path ("github.com/cap-repro/crisprscan/internal/core").
	Path string
	// Name is the package name ("core").
	Name string
	// Dir is the directory holding the sources.
	Dir string
	// Files holds the non-test files.
	Files []*ast.File
	// TestFiles holds the _test.go files (in-package and external).
	TestFiles []*ast.File
	// Generated marks filenames (as recorded in the FileSet) carrying a
	// `// Code generated ... DO NOT EDIT.` header. Generated files stay
	// in Files so type checking sees the whole package, but diagnostics
	// landing in them are dropped by the driver.
	Generated map[string]bool
}

// AllFiles returns non-test files followed by test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// Program is the whole loaded module: it gives analyzers cross-package
// visibility (used by enginereg to compare the public API against the
// internal registry, and by the interprocedural tier's call graph).
type Program struct {
	// ModulePath is the module's import-path prefix.
	ModulePath string
	// Packages maps import path to syntax.
	Packages map[string]*Package

	typesOnce sync.Once
	types     *typesState
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Program  *Program

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InModulePackage reports whether the analyzed package's import path is
// exactly the module root or sits under it at the given suffix
// ("internal/dna"). An empty suffix matches the module root package.
func (p *Pass) InModulePackage(suffix string) bool {
	mod := ""
	if p.Program != nil {
		mod = p.Program.ModulePath
	}
	if suffix == "" {
		return p.Pkg.Path == mod
	}
	if mod != "" {
		return p.Pkg.Path == mod+"/"+suffix
	}
	return strings.HasSuffix(p.Pkg.Path, "/"+suffix) || p.Pkg.Path == suffix
}

// allowRe matches the suppression directive. Group 1 is the
// comma-separated analyzer list.
var allowRe = regexp.MustCompile(`^//crisprlint:allow\s+([A-Za-z0-9_,-]+)(\s|$)`)

// allowedLines returns, per filename, the set of "line:analyzer" keys
// suppressed by //crisprlint:allow directives. A directive covers its
// own line and the line below it (so it works both as a trailing
// comment and as a standalone comment above the flagged statement).
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]bool {
	allowed := make(map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					allowed[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, name)] = true
					allowed[fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line+1, name)] = true
				}
			}
		}
	}
	return allowed
}

// RunAnalyzers applies every analyzer to every package of prog and
// returns the surviving diagnostics sorted by position. Analyzer
// errors (not findings) abort the run.
func RunAnalyzers(fset *token.FileSet, prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	paths := make([]string, 0, len(prog.Packages))
	for path := range prog.Packages {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pkg := prog.Packages[path]
		allowed := allowedLines(fset, pkg.AllFiles())
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Program: prog}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, path, err)
			}
			for _, d := range pass.diagnostics {
				p := fset.Position(d.Pos)
				if allowed[fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, d.Analyzer)] {
					continue
				}
				if pkg.Generated[p.Filename] {
					continue
				}
				all = append(all, d)
			}
		}
	}
	// Deterministic order — (file, line, column, analyzer) — so repeated
	// runs and the -json report diff cleanly.
	sort.Slice(all, func(i, j int) bool {
		pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// All returns the crisprlint analyzers in stable order: the syntactic
// checkers from the first tier, the type-checked ones, then the
// interprocedural concurrency tier.
func All() []*Analyzer {
	return []*Analyzer{
		EngineReg, DNAAlphabet, StatsDiscipline, ErrWrap, ClockGuard, CtxFlow,
		LogDiscipline, DeferLoop,
		HotPath, LockOrder, LoopInvariant, SpanEnd,
		GoroutineLeak, LockCycle,
	}
}

// inspect walks every node of the files, calling fn; fn returning
// false prunes the subtree.
func inspect(files []*ast.File, fn func(ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, fn)
	}
}
