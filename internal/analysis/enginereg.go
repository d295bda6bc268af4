package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// EngineReg enforces engine-registry parity, the static half of the
// paper's "all engines return the identical site set" contract:
//
//   - every core.EngineKind constant must appear in core.AllEngines;
//   - every core.EngineKind constant must be dispatchable: it must
//     appear as a switch case inside core.NewEngine;
//   - every AllEngines entry must be a declared EngineKind constant;
//   - the core test suite must contain a Test function that ranges over
//     AllEngines (the cross-engine parity matrix), so a new engine is
//     automatically pulled into the differential gate;
//   - the public crisprscan package must re-export every EngineKind
//     constant (checked when the root package and internal/core are
//     loaded together, as `crisprlint ./...` does).
var EngineReg = &Analyzer{
	Name: "enginereg",
	Doc: "every core.EngineKind must be listed in AllEngines, dispatched by NewEngine, " +
		"exercised by a Test ranging over AllEngines, and re-exported by the public API",
	Run: runEngineReg,
}

const corePkgSuffix = "internal/core"

func runEngineReg(pass *Pass) error {
	if pass.InModulePackage(corePkgSuffix) {
		checkCoreRegistry(pass)
	}
	if pass.InModulePackage("") {
		checkPublicReexports(pass)
	}
	return nil
}

// engineConsts collects the declared EngineKind constant names of the
// core package files, in declaration order.
func engineConsts(files []*ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "const" {
				continue
			}
			// Within one const block an omitted type carries the
			// previous spec's type forward only together with an
			// omitted value; EngineKind specs all carry values, so we
			// track the explicit type per spec but tolerate carry.
			carry := false
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				isKind := carry && vs.Type == nil && len(vs.Values) == 0
				if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "EngineKind" {
					isKind = true
				}
				carry = isKind
				if !isKind {
					continue
				}
				out = append(out, vs.Names...)
			}
		}
	}
	return out
}

func checkCoreRegistry(pass *Pass) {
	consts := engineConsts(pass.Pkg.Files)
	if len(consts) == 0 {
		return // not the registry-bearing package variant
	}
	constSet := make(map[string]bool, len(consts))
	for _, id := range consts {
		constSet[id.Name] = true
	}

	// AllEngines membership.
	listed := make(map[string]bool)
	var allEnginesDecl *ast.ValueSpec
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "AllEngines" || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					allEnginesDecl = vs
					for _, elt := range cl.Elts {
						if id, ok := elt.(*ast.Ident); ok {
							listed[id.Name] = true
							if !constSet[id.Name] {
								pass.Reportf(id.Pos(), "AllEngines entry %s is not a declared EngineKind constant", id.Name)
							}
						}
					}
				}
			}
		}
	}
	if allEnginesDecl == nil {
		pass.Reportf(pass.Pkg.Files[0].Package, "package %s declares EngineKind constants but no AllEngines registry", pass.Pkg.Name)
		return
	}

	// NewEngine dispatch coverage.
	dispatched := make(map[string]bool)
	var newEngine *ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "NewEngine" && fd.Recv == nil {
				newEngine = fd
			}
		}
	}
	if newEngine == nil {
		pass.Reportf(allEnginesDecl.Pos(), "package %s has no NewEngine dispatcher for the engine registry", pass.Pkg.Name)
	} else {
		ast.Inspect(newEngine, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, expr := range cc.List {
				if id, ok := expr.(*ast.Ident); ok {
					dispatched[id.Name] = true
				}
			}
			return true
		})
	}

	for _, id := range consts {
		if !listed[id.Name] {
			pass.Reportf(id.Pos(), "EngineKind constant %s is missing from AllEngines", id.Name)
		}
		if newEngine != nil && !dispatched[id.Name] {
			pass.Reportf(id.Pos(), "EngineKind constant %s is not dispatched by NewEngine", id.Name)
		}
	}

	// Parity-matrix coverage: some Test function must range over
	// AllEngines. Only checkable when the pass carries test files.
	if len(pass.Pkg.TestFiles) == 0 {
		return
	}
	if !hasTestRangingOverAllEngines(pass.Pkg.TestFiles) {
		pass.Reportf(allEnginesDecl.Pos(), "no Test function ranges over AllEngines: the cross-engine parity matrix does not cover the registry")
	}
}

func hasTestRangingOverAllEngines(files []*ast.File) bool {
	found := false
	inspect(files, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if !strings.HasPrefix(fd.Name.Name, "Test") {
			return false
		}
		ast.Inspect(fd, func(m ast.Node) bool {
			rs, ok := m.(*ast.RangeStmt)
			if !ok {
				return true
			}
			switch x := rs.X.(type) {
			case *ast.Ident:
				if x.Name == "AllEngines" {
					found = true
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "AllEngines" {
					found = true
				}
			}
			return true
		})
		return false
	})
	return found
}

// checkPublicReexports verifies that the module-root package re-exports
// every EngineKind constant as `Name = core.Name`.
func checkPublicReexports(pass *Pass) {
	if pass.Program == nil {
		return
	}
	var core *Package
	for path, pkg := range pass.Program.Packages {
		if strings.HasSuffix(path, "/"+corePkgSuffix) {
			core = pkg
		}
	}
	if core == nil {
		return // per-package driver: cross-package check unavailable
	}
	want := engineConsts(core.Files)
	if len(want) == 0 {
		return
	}

	reexported := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "const" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					sel, ok := vs.Values[i].(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == core.Name && sel.Sel.Name == name.Name {
						reexported[name.Name] = true
					}
				}
			}
		}
	}

	var missing []string
	for _, id := range want {
		if !reexported[id.Name] {
			missing = append(missing, id.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pos := pass.Pkg.Files[0].Package
		pass.Reportf(pos, "public package %s does not re-export engine kind(s) %s from %s",
			pass.Pkg.Name, strings.Join(missing, ", "), core.Path)
	}
}
