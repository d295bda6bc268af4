package analysis

// This file is the interprocedural tier's foundation: a stdlib-only
// call-graph builder over the Program's type-checked packages, plus the
// per-function facts the concurrency analyzers consume —
//
//   - NoReturn: the function's CFG exit is unreachable from its entry
//     (treating calls to other NoReturn functions as diverging), so a
//     goroutine running it can never finish (goroutineleak);
//   - Acquires: the set of canonical mutex identities the function may
//     take, directly or transitively through its callees (lockcycle);
//   - LockEdges: the lock-order pairs (held → acquired) the function
//     establishes, including acquisitions made by callees while a
//     caller's mutex is held (lockcycle's cross-call deadlock graph).
//
// Call resolution is deliberately conservative in the direction of
// silence (fail-open, like the typed tier's error handling):
//
//   - direct calls and concrete method calls resolve exactly;
//   - interface method calls resolve to every concrete method in the
//     Program with the same name whose receiver implements the
//     interface — an over-approximation for Acquires (extra candidates
//     can only add facts) and an under-approximation for NoReturn
//     (multiple candidates are never treated as diverging);
//   - calls through function values, struct fields, and anything else
//     without a *types.Func resolve to nothing and mark the caller as
//     having unknown callees.
//
// The graph is built once over every loaded package, so facts cross
// package boundaries by construction; a callee outside the loaded
// packages (the standard library, say) is assumed to return and to
// take no module mutex. Functions are keyed by name ("pkg/path.Func",
// "pkg/path.(Recv).Method") so diagnostics can print them.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// maxAcquires bounds a single function's transitive acquisition set so
// a pathological module cannot make fact computation quadratic.
const maxAcquires = 64

// cgCall is one resolved call site.
type cgCall struct {
	pos token.Pos
	// keys holds the candidate callee keys: exactly one for static
	// calls, possibly several for interface dispatch.
	keys []string
}

// cgNode is one function in the call graph.
type cgNode struct {
	key  string
	decl *ast.FuncDecl
	ti   *TypeInfo
	// calls are the body's resolved call sites (function literals are
	// opaque: their call sites belong to no node — soundness caveat).
	calls []cgCall
	// callsUnknown is set when the body calls through a function value
	// or other unresolvable callee.
	callsUnknown bool
	// acquired are the body's direct mutex acquisitions.
	acquired []lockSite

	noReturnDone, noReturn bool
	noReturnBusy           bool
	acquiresDone           bool
	acquiresBusy           bool
	acquires               map[string]bool
}

// lockSite is one direct mutex acquisition inside a body.
type lockSite struct {
	id  string
	pos token.Pos
}

// callGraph is the Program-wide graph.
type callGraph struct {
	nodes map[string]*cgNode
	// methodsByName supports conservative interface resolution.
	methodsByName map[string][]*cgNode

	// moduleLockEdges is memoized: lockcycle runs once per package but
	// the edge set is a whole-Program property.
	edgesOnce   sync.Once
	moduleEdges []lockEdge
}

// callGraphOf builds (once per Program) the call graph over every
// loaded package's non-test files.
func (prog *Program) callGraphOf(fset *token.FileSet) *callGraph {
	st := prog.typeState()
	st.cgOnce.Do(func() {
		cg := &callGraph{
			nodes:         make(map[string]*cgNode),
			methodsByName: make(map[string][]*cgNode),
		}
		paths := make([]string, 0, len(prog.Packages))
		for path := range prog.Packages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			pkg := prog.Packages[path]
			ti := prog.TypeCheck(fset, pkg)
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := ti.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					node := &cgNode{key: funcKeyOf(fn), decl: fd, ti: ti}
					node.collectBody(cg)
					cg.nodes[node.key] = node
					if fd.Recv != nil {
						cg.methodsByName[fd.Name.Name] = append(cg.methodsByName[fd.Name.Name], node)
					}
				}
			}
		}
		st.cg = cg
	})
	return st.cg
}

// funcKeyOf renders the stable, name-based fact key for a function.
func funcKeyOf(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return pkgPath + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return pkgPath + ".(?)." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// lockIdentOf canonicalizes the mutex operand of a Lock/RLock call:
// a struct field becomes "pkg/path.(Type).field", a package-level var
// "pkg/path.name". Local mutexes (and anything unresolvable) return
// ok=false — they cannot participate in a module-wide order.
func lockIdentOf(ti *TypeInfo, mu ast.Expr) (string, bool) {
	switch mu := mu.(type) {
	case *ast.SelectorExpr:
		sel, ok := ti.Info.Selections[mu]
		if !ok {
			// Qualified package-level var (pkg.mu).
			if v, ok := ti.Info.Uses[mu.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && isMutexType(v.Type()) {
				if v.Parent() == v.Pkg().Scope() {
					return v.Pkg().Path() + "." + v.Name(), true
				}
			}
			return "", false
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !v.IsField() || v.Pkg() == nil || !isMutexType(v.Type()) {
			return "", false
		}
		recv := sel.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return "", false
		}
		return v.Pkg().Path() + ".(" + named.Obj().Name() + ")." + v.Name(), true
	case *ast.Ident:
		v, ok := ti.Info.Uses[mu].(*types.Var)
		if !ok || v.Pkg() == nil || !isMutexType(v.Type()) {
			return "", false
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
		return "", false
	}
	return "", false
}

// collectBody resolves the declaration's call sites and direct mutex
// acquisitions, skipping nested function literals (their bodies run in
// a different calling context; see the package caveats).
func (n *cgNode) collectBody(cg *callGraph) {
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, acquire, ok := lockCall(node); ok && id != "" {
				if acquire {
					if sel, isSel := node.Fun.(*ast.SelectorExpr); isSel {
						if lid, lok := lockIdentOf(n.ti, sel.X); lok {
							n.acquired = append(n.acquired, lockSite{id: lid, pos: node.Pos()})
						}
					}
				}
				return true
			}
			keys, unknown := resolveCall(cg, n.ti, node)
			if unknown {
				n.callsUnknown = true
			}
			if len(keys) > 0 {
				n.calls = append(n.calls, cgCall{pos: node.Pos(), keys: keys})
			}
		}
		return true
	})
}

// resolveCall returns the candidate callee keys for a call expression.
// unknown is true when the callee cannot be resolved to any *types.Func
// (function values, fields, built-ins are not unknown — they are known
// to be irrelevant).
func resolveCall(cg *callGraph, ti *TypeInfo, call *ast.CallExpr) (keys []string, unknown bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := ti.Info.Uses[fun].(type) {
		case *types.Func:
			return []string{funcKeyOf(obj)}, false
		case *types.Builtin, *types.TypeName:
			return nil, false // builtin or conversion
		case *types.Var:
			return nil, true // function value
		}
		if _, isDef := ti.Info.Defs[fun]; isDef {
			return nil, true
		}
		return nil, false
	case *ast.IndexExpr:
		// Explicit generic instantiation F[T](...) resolves like F(...);
		// an indexed function value fns[i](...) recurses into the Var
		// case and stays unknown.
		return resolveCall(cg, ti, &ast.CallExpr{Fun: fun.X, Args: call.Args})
	case *ast.IndexListExpr:
		// F[T1, T2](...) with several type arguments.
		return resolveCall(cg, ti, &ast.CallExpr{Fun: fun.X, Args: call.Args})
	case *ast.SelectorExpr:
		if sel, ok := ti.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, true // field of function type
			}
			if types.IsInterface(sel.Recv()) {
				return interfaceCandidates(cg, sel.Recv(), fn.Name()), false
			}
			return []string{funcKeyOf(fn)}, false
		}
		// Qualified identifier pkg.F.
		switch obj := ti.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return []string{funcKeyOf(obj)}, false
		case *types.Var:
			return nil, true
		case *types.TypeName:
			return nil, false
		}
		return nil, false
	}
	// Immediately-invoked literals, indexed expressions, conversions:
	// treat as unknown unless it is a plain type conversion.
	if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		return nil, true
	}
	return nil, true
}

// interfaceCandidates returns every concrete method in the graph with
// the given name whose receiver implements the interface.
func interfaceCandidates(cg *callGraph, iface types.Type, name string) []string {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var keys []string
	for _, m := range cg.methodsByName[name] {
		fn, ok := m.ti.Info.Defs[m.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			keys = append(keys, m.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// noReturnOf reports whether the function behind key can never return.
// Unresolvable keys and recursion assume the function returns.
func (cg *callGraph) noReturnOf(key string) bool {
	n, ok := cg.nodes[key]
	if !ok {
		return false
	}
	if n.noReturnDone {
		return n.noReturn
	}
	if n.noReturnBusy {
		return false // recursion: optimistic (a finding needs proof)
	}
	n.noReturnBusy = true
	n.noReturn = !bodyTerminates(n.decl.Body, n.ti, cg)
	n.noReturnBusy = false
	n.noReturnDone = true
	return n.noReturn
}

// bodyTerminates reports whether a function body has any control path
// to its exit, treating calls to single-candidate NoReturn callees as
// diverging. It is shared between fact computation (FuncDecls) and
// goroutineleak's direct check of `go func(){...}` literals. Nested
// function literals, `go` statements (the spawned goroutine diverging
// does not block the spawner) and deferred calls are skipped.
func bodyTerminates(body *ast.BlockStmt, ti *TypeInfo, cg *callGraph) bool {
	cfg := buildCFG(body)
	return cfg.exitReachable(func(n ast.Node) bool {
		diverges := false
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				keys, _ := resolveCall(cg, ti, n)
				if len(keys) == 1 && cg.noReturnOf(keys[0]) {
					diverges = true
				}
			}
			return true
		})
		return diverges
	})
}

// acquiresOf returns the transitive set of canonical mutex identities
// the function may take. Unresolvable keys take none; recursion
// contributes nothing new; the set is size-capped.
func (cg *callGraph) acquiresOf(key string) map[string]bool {
	n, ok := cg.nodes[key]
	if !ok {
		return nil
	}
	if n.acquiresDone {
		return n.acquires
	}
	if n.acquiresBusy {
		return nil
	}
	n.acquiresBusy = true
	acq := make(map[string]bool)
	for _, s := range n.acquired {
		acq[s.id] = true
	}
	for _, c := range n.calls {
		for _, k := range c.keys {
			for id := range cg.acquiresOf(k) {
				if len(acq) >= maxAcquires {
					break
				}
				acq[id] = true
			}
		}
	}
	n.acquiresBusy = false
	n.acquires = acq
	n.acquiresDone = true
	return acq
}

// lockEdge is one observed ordering: a mutex acquired (directly or via
// a call) while another is held.
type lockEdge struct {
	held, acquired string
	pos            token.Pos // the acquiring site (or call site) in this run's FileSet
	viaCall        string    // non-empty when the acquisition happens inside a callee
}

// lockEdgesOf computes the function's lock-order edges with a must-held
// analysis over its CFG: at every direct acquisition of B and at every
// call that may transitively acquire B, each currently-held A yields an
// edge A→B.
func (cg *callGraph) lockEdgesOf(key string) []lockEdge {
	n, ok := cg.nodes[key]
	if !ok || n.decl.Body == nil {
		return nil
	}
	if len(n.acquired) == 0 && len(n.calls) == 0 {
		return nil
	}
	universe := make(map[string]bool)
	for _, s := range n.acquired {
		universe[s.id] = true
	}
	if len(universe) == 0 {
		return nil // nothing held locally ⇒ no edge can originate here
	}
	cfg := buildCFG(n.decl.Body)
	genKill := func(node ast.Node, held map[string]bool) {
		walkLeaf(node, true, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, acquire, isLock := lockCall(call); isLock {
				if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
					if id, lok := lockIdentOf(n.ti, sel.X); lok {
						if acquire {
							held[id] = true
						} else {
							delete(held, id)
						}
					}
				}
			}
			return true
		})
	}
	var edges []lockEdge
	visit, _ := cfg.mustHeld(universe, genKill)
	visit(func(node ast.Node, held map[string]bool) {
		if len(held) == 0 {
			return
		}
		walkLeaf(node, false, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, acquire, isLock := lockCall(call); isLock {
				if !acquire {
					return true
				}
				sel, isSel := call.Fun.(*ast.SelectorExpr)
				if !isSel {
					return true
				}
				id, lok := lockIdentOf(n.ti, sel.X)
				if !lok {
					return true
				}
				for a := range held {
					if a != id {
						edges = append(edges, lockEdge{held: a, acquired: id, pos: call.Pos()})
					}
				}
				return true
			}
			keys, _ := resolveCall(cg, n.ti, call)
			for _, k := range keys {
				for b := range cg.acquiresOf(k) {
					for a := range held {
						if a != b {
							edges = append(edges, lockEdge{held: a, acquired: b, pos: call.Pos(), viaCall: k})
						}
					}
				}
			}
			return true
		})
	})
	return edges
}

// moduleLockEdges aggregates every function's lock edges. The result is
// computed once per Program.
func (cg *callGraph) moduleLockEdges() []lockEdge {
	cg.edgesOnce.Do(func() {
		keys := make([]string, 0, len(cg.nodes))
		for key := range cg.nodes {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cg.moduleEdges = append(cg.moduleEdges, cg.lockEdgesOf(key)...)
		}
	})
	return cg.moduleEdges
}

// resolveGoCallee resolves the function a `go` statement spawns, when
// it names a declared function or method (not a literal): the candidate
// keys, or nil.
func resolveGoCallee(cg *callGraph, ti *TypeInfo, call *ast.CallExpr) []string {
	keys, _ := resolveCall(cg, ti, call)
	return keys
}

// funcDisplayName renders a fact key for diagnostics: strip the module
// path prefix so messages stay readable.
func funcDisplayName(prog *Program, key string) string {
	if prog != nil && prog.ModulePath != "" {
		if rest, ok := strings.CutPrefix(key, prog.ModulePath+"/"); ok {
			return rest
		}
		if rest, ok := strings.CutPrefix(key, prog.ModulePath+"."); ok {
			return rest
		}
	}
	return key
}

// lockDisplayName strips the module prefix from a canonical lock id.
func lockDisplayName(prog *Program, id string) string {
	return funcDisplayName(prog, id)
}

// isMutexType reports whether t (or its pointer target) is sync.Mutex
// or sync.RWMutex — the only receivers whose Lock/Unlock calls count as
// mutex operations for the interprocedural tier.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
