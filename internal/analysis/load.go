package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Module       *struct{ Path string }
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load resolves the given package patterns with the go tool, parses
// every matched package (including its test files), and returns the
// whole program.
func Load(fset *token.FileSet, dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	prog := &Program{Packages: make(map[string]*Package)}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Module != nil && prog.ModulePath == "" {
			prog.ModulePath = lp.Module.Path
		}
		pkg := &Package{Path: lp.ImportPath, Name: lp.Name, Dir: lp.Dir, Generated: make(map[string]bool)}
		for _, group := range [][]string{lp.GoFiles, lp.CgoFiles} {
			for _, name := range group {
				path := filepath.Join(lp.Dir, name)
				f, err := parseOne(fset, path)
				if err != nil {
					return nil, err
				}
				if ast.IsGenerated(f) {
					pkg.Generated[path] = true
				}
				pkg.Files = append(pkg.Files, f)
			}
		}
		for _, group := range [][]string{lp.TestGoFiles, lp.XTestGoFiles} {
			for _, name := range group {
				path := filepath.Join(lp.Dir, name)
				f, err := parseOne(fset, path)
				if err != nil {
					return nil, err
				}
				if ast.IsGenerated(f) {
					pkg.Generated[path] = true
				}
				pkg.TestFiles = append(pkg.TestFiles, f)
			}
		}
		prog.Packages[lp.ImportPath] = pkg
	}
	return prog, nil
}

func parseOne(fset *token.FileSet, path string) (*ast.File, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return f, nil
}
