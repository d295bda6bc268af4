package analysis

import (
	"go/ast"
)

// CtxFlow keeps the scan pipeline's cancellation plumbing intact in the
// packages that carry it (internal/core and the engines: internal/hscan,
// internal/casoffinder, internal/casot, internal/seedindex). A context.Context handed to these layers must
// flow through them — a function that accepts a ctx and then ignores it
// or substitutes a fresh one silently severs cancellation for
// everything beneath, which is exactly the regression that turns a
// Ctrl-C'd genome scan back into an unkillable process.
//
// Two rules, both syntactic and per-function:
//
//  1. an exported function that takes a context.Context parameter must
//     reference that parameter in its body (propagate it, or check
//     Done/Err) — and must bind it to a name, not discard it with _;
//  2. any function that has a ctx parameter in scope must not call
//     context.Background() or context.TODO() (including inside nested
//     function literals).
//
// Ctx-less compatibility wrappers (core.Search, core.SearchStream) are
// the sanctioned entry points for a background context: they take no
// ctx, so neither rule applies to them. An engine has no such wrapper:
// arch.Engine.ScanChrom takes the caller's ctx.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "ctx-taking functions in core and the engines must propagate their " +
		"context.Context and never substitute context.Background()/TODO()",
	Run: runCtxFlow,
}

// ctxFlowPkgSuffixes names the gated packages.
var ctxFlowPkgSuffixes = []string{"internal/core", "internal/hscan", "internal/casoffinder", "internal/casot", "internal/seedindex"}

func runCtxFlow(pass *Pass) error {
	gated := false
	for _, suffix := range ctxFlowPkgSuffixes {
		if pass.InModulePackage(suffix) {
			gated = true
			break
		}
	}
	if !gated {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFunc(pass, fd)
		}
	}
	return nil
}

// ctxParamNames returns the names bound to context.Context parameters
// of fd, plus whether any such parameter was discarded (unnamed or _).
func ctxParamNames(fd *ast.FuncDecl) (names []string, discarded bool) {
	if fd.Type.Params == nil {
		return nil, false
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(field.Type) {
			continue
		}
		if len(field.Names) == 0 {
			discarded = true
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				discarded = true
				continue
			}
			names = append(names, name.Name)
		}
	}
	return names, discarded
}

// isContextType matches the context.Context selector syntactically.
func isContextType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "context"
}

// isCtxConstructor matches context.Background() / context.TODO() calls.
func isCtxConstructor(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "context"
}

func checkCtxFunc(pass *Pass, fd *ast.FuncDecl) {
	names, discarded := ctxParamNames(fd)
	exported := fd.Name.IsExported()
	if exported && discarded {
		pass.Reportf(fd.Pos(), "exported function %s discards its context.Context parameter; bind and propagate it", fd.Name.Name)
	}
	if len(names) == 0 && !discarded {
		return
	}
	used := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			used[n.Name] = true
		case *ast.CallExpr:
			// Rule 2: a ctx is in scope in this function (possibly
			// shadowed inside a nested literal — accepted imprecision
			// for a syntactic checker).
			if isCtxConstructor(n) {
				pass.Reportf(n.Pos(), "%s manufactures a fresh context despite receiving one; propagate the caller's ctx", fd.Name.Name)
			}
		}
		return true
	})
	if !exported {
		return
	}
	// Rule 1: every named ctx parameter of an exported function must be
	// referenced somewhere in the body.
	for _, name := range names {
		if !used[name] {
			pass.Reportf(fd.Pos(), "exported function %s never uses its context.Context parameter %q; propagate it or check %s.Err()", fd.Name.Name, name, name)
		}
	}
}
