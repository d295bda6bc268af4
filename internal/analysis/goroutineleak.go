package analysis

import (
	"go/ast"
)

// GoroutineLeak demands that every `go` statement spawn a goroutine
// with a provable termination path. The check is the interprocedural
// tier's flagship: the spawned body's CFG must have the exit block
// reachable from the entry, where
//
//   - a `for` without condition only contributes an exit through a
//     break/return inside it (label-aware);
//   - a `select` without default only continues through a case body, so
//     a loop whose every select case loops again — and the empty
//     `select{}` — diverges;
//   - `for range ch` terminates when the channel closes, so it counts
//     as a termination path by itself;
//   - a call to a function that itself never returns (computed
//     transitively over the module-wide call graph) diverges at the
//     call site.
//
// `go f(x)` spawning a declared function or method checks f's own
// termination fact. Unresolvable callees (function values, interface
// methods with several implementations) are assumed to terminate —
// fail-open, a finding needs proof.
//
// What this deliberately does NOT prove: that the termination path is
// ever taken. A receive from a channel nobody closes still leaks; the
// analyzer's contract is the weaker, checkable one — the code must at
// least have a path out (a ctx.Done/stop-channel case, a bounded loop,
// or a closeable range), which is the invariant the scan worker pool
// and admin server goroutines are built around.
//
// Test files are exempt: test goroutines are joined by the test's own
// lifetime and t.Cleanup.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc: "every `go` statement must spawn a goroutine with a reachable termination " +
		"path (return, loop exit, closeable range, or a select case that leaves the " +
		"loop), checked through the call graph for named callees",
	Run: runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) error {
	ti := pass.Types()
	cg := pass.Program.callGraphOf(pass.Fset)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				if !bodyTerminates(fun.Body, ti, cg) {
					pass.Reportf(g.Pos(), "goroutine never terminates: no control path reaches the end of the function literal; "+
						"add a ctx.Done()/stop-channel select case, bound the loop, or range over a closeable channel")
				}
			default:
				keys := resolveGoCallee(cg, ti, g.Call)
				if len(keys) == 1 && cg.noReturnOf(keys[0]) {
					pass.Reportf(g.Pos(), "goroutine runs %s, which never returns: no control path reaches its end; "+
						"give it a termination path (ctx.Done()/stop-channel case, bounded loop, or closeable range)",
						funcDisplayName(pass.Program, keys[0]))
				}
			}
			return true
		})
	}
	return nil
}
