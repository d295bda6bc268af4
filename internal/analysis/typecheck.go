package analysis

// This file is the type-checked tier of the analysis framework. The
// original crisprlint analyzers are purely syntactic; the hot-path
// invariants added for the throughput work (allocation-free scan
// kernels, lock ordering) need go/types: interface boxing is invisible
// in syntax, and field identity across selector expressions requires
// resolved objects.
//
// The tier keeps the zero-dependency constraint by using only the
// standard library: each package's already-parsed files are
// type-checked against the Pass's own FileSet, with imports resolved by
// go/importer's "source" importer (which understands module-local
// import paths by delegating to go/build, and typechecks the stdlib
// from source).
//
// Type checking is best-effort: errors are collected, not fatal, and
// the typed analyzers degrade to silence where information is missing
// (fail-open — a broken build is reported by `go build`, not by a
// cascade of spurious lint findings).

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"sync"
)

// TypeInfo is the best-effort type-checking result for one package's
// non-test files.
type TypeInfo struct {
	// Pkg is the checked package object; non-nil even when Err is set
	// (go/types produces a partial package on soft errors).
	Pkg *types.Package
	// Info holds the resolved expression types, object uses/defs and
	// selections. All maps are non-nil; entries exist only where the
	// checker succeeded.
	Info *types.Info
	// Err is the first type error encountered, nil for a clean check.
	Err error
}

// typesState is the Program's lazily built type-checking machinery.
// It lives behind a pointer so Program literals in tests need not
// mention it.
type typesState struct {
	mu       sync.Mutex
	infos    map[string]*TypeInfo
	importer types.Importer

	// the interprocedural tier's call graph and memoized function
	// facts, built once on first demand (see callgraph.go).
	cgOnce sync.Once
	cg     *callGraph
}

// typeState returns the Program's memoization cell, creating it on
// first use.
func (prog *Program) typeState() *typesState {
	prog.typesOnce.Do(func() {
		prog.types = &typesState{infos: make(map[string]*TypeInfo)}
	})
	return prog.types
}

// TypeCheck type-checks pkg's non-test files and memoizes the result.
// Concurrent callers are serialized; the importer is shared across
// packages so stdlib and module-local dependencies are checked once.
func (prog *Program) TypeCheck(fset *token.FileSet, pkg *Package) *TypeInfo {
	st := prog.typeState()
	st.mu.Lock()
	defer st.mu.Unlock()
	if ti, ok := st.infos[pkg.Path]; ok {
		return ti
	}
	if st.importer == nil {
		// The "source" importer resolves module-local paths through
		// go/build (which consults the go command in module mode) and
		// typechecks the standard library from source — no export
		// data, no network, no third-party loader.
		st.importer = importer.ForCompiler(fset, "source", nil)
	}
	ti := &TypeInfo{Info: newTypesInfo()}
	var firstErr error
	conf := types.Config{
		Importer: st.importer,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkgObj, err := conf.Check(pkg.Path, fset, pkg.Files, ti.Info)
	ti.Pkg = pkgObj
	if firstErr != nil {
		ti.Err = firstErr
	} else if err != nil {
		ti.Err = err
	}
	st.infos[pkg.Path] = ti
	return ti
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Types returns best-effort type information for the package under
// analysis. The result is memoized on the Program, so the typed
// analyzers share one check per package.
func (p *Pass) Types() *TypeInfo {
	if p.Program == nil {
		return &TypeInfo{Info: newTypesInfo()}
	}
	return p.Program.TypeCheck(p.Fset, p.Pkg)
}

// fieldVarOf resolves a selector expression to the struct field it
// names, or nil when the selector is not a field access (method,
// package member, unresolved).
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified identifiers (pkg.X) land in Uses, not Selections.
	if obj, ok := info.Uses[sel.Sel]; ok {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// objKey returns a position-based identity for an object that is
// stable across separate type-checks of the same sources (the source
// importer re-parses imported packages into the same FileSet, so
// filename:line:col agrees even when the *types.Var pointers differ).
func objKey(fset *token.FileSet, obj types.Object) string {
	return fset.Position(obj.Pos()).String()
}

// pointerShaped reports whether values of t are stored directly in an
// interface word, so converting them to an interface type does not
// allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
