package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockOrder enforces documented mutex discipline. A struct field whose
// doc or trailing comment says
//
//	// guarded by mu
//
// names the sibling mutex that protects it; every access to the field
// must then happen with that mutex held on all control-flow paths in
// the enclosing function. The check is a forward must-analysis over the
// approximate per-function CFG: mu.Lock()/RLock() generates the "held"
// fact, mu.Unlock()/RUnlock() kills it, a deferred unlock does not kill
// (the mutex stays held through the rest of the body), and joins
// intersect — an access reachable on any unlocked path is flagged.
//
// Two escape hatches keep the signal honest without suppression
// sprawl: functions whose name ends in "Locked" (the conventional
// caller-holds-the-lock suffix) are skipped, and function literals are
// skipped (a closure's locking context is its call sites', which a
// per-function analysis cannot see).
//
// Test files are exempt: tests construct and inspect values
// single-goroutine, before and after the concurrency they exercise.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "fields documented `// guarded by <mu>` must only be accessed with " +
		"that mutex held on all paths in the enclosing function",
	Run: runLockOrder,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardedField is one field carrying a guard annotation.
type guardedField struct {
	mu string // the documented mutex field name
}

// guardedFields collects the annotated fields declared in the package:
// objKey(field) -> guard. Guard comments are read from each field's doc
// group and trailing comment.
func guardedFields(pass *Pass, ti *TypeInfo) map[string]guardedField {
	out := make(map[string]guardedField)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mu := guardName(fld.Doc)
				if mu == "" {
					mu = guardName(fld.Comment)
				}
				if mu == "" {
					continue
				}
				for _, name := range fld.Names {
					obj, ok := ti.Info.Defs[name]
					if !ok || obj == nil {
						continue
					}
					out[objKey(pass.Fset, obj)] = guardedField{mu: mu}
				}
			}
			return true
		})
	}
	return out
}

func guardName(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		if m := guardedByRe.FindStringSubmatch(c.Text); m != nil {
			return m[1]
		}
	}
	return ""
}

func runLockOrder(pass *Pass) error {
	ti := pass.Types()
	guards := guardedFields(pass, ti)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			checkLockOrder(pass, ti, guards, fd)
		}
	}
	return nil
}

// lockKey is the dataflow fact for "this mutex is held": the printed
// base expression joined with the mutex field name, so c.mu.Lock()
// guards c.sites but not other.sites.
func lockKey(base ast.Expr, mu string) string {
	return types.ExprString(base) + "." + mu
}

// lockCall decomposes expr as a Lock/RLock/Unlock/RUnlock method call
// on a mutex selector and returns the fact key and whether the call
// acquires (true) or releases (false). ok is false for anything else.
func lockCall(call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	switch mu := sel.X.(type) {
	case *ast.SelectorExpr:
		return lockKey(mu.X, mu.Sel.Name), acquire, true
	case *ast.Ident:
		return mu.Name, acquire, true
	}
	return "", false, false
}

// walkLeaf visits expressions inside a CFG leaf node, skipping function
// literals (their bodies have their own locking context) and, when
// skipDefer is set, deferred calls (a deferred Unlock does not release
// the mutex for the remainder of the body).
func walkLeaf(n ast.Node, skipDefer bool, visit func(n ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if skipDefer {
				return false
			}
		}
		return visit(n)
	})
}

func checkLockOrder(pass *Pass, ti *TypeInfo, guards map[string]guardedField, fd *ast.FuncDecl) {
	// Universe: every mutex fact the body can generate. Also an early
	// exit — a body that never locks anything and never touches a
	// guarded field costs nothing.
	universe := make(map[string]bool)
	touches := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if key, acquire, ok := lockCall(n); ok && acquire {
				universe[key] = true
			}
		case *ast.SelectorExpr:
			if field := fieldVarOf(ti.Info, n); field != nil {
				if _, ok := guards[objKey(pass.Fset, field)]; ok {
					touches = true
				}
			}
		}
		return true
	})
	if !touches {
		return
	}

	cfg := buildCFG(fd.Body)
	genKill := func(n ast.Node, held map[string]bool) {
		walkLeaf(n, true, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, acquire, ok := lockCall(call); ok {
					if acquire {
						held[key] = true
					} else {
						delete(held, key)
					}
				}
			}
			return true
		})
	}
	visit, _ := cfg.mustHeld(universe, genKill)
	visit(func(n ast.Node, held map[string]bool) {
		walkLeaf(n, false, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field := fieldVarOf(ti.Info, sel)
			if field == nil {
				return true
			}
			g, guarded := guards[objKey(pass.Fset, field)]
			if !guarded {
				return true
			}
			need := lockKey(sel.X, g.mu)
			if !held[need] {
				pass.Reportf(sel.Pos(), "field %s is documented `guarded by %s` but accessed without %s held on all paths in %s",
					field.Name(), g.mu, need, fd.Name.Name)
			}
			return true
		})
	})
}
