package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// LockCycle is the interprocedural extension of lockorder: it folds
// every function's observed lock-order pairs (mutex B acquired while
// mutex A is held, directly or through a callee — see lockEdgesOf in
// callgraph.go) into one module-wide directed graph over canonical
// mutex identities, and flags every edge that closes a cycle. Two
// goroutines walking a cycle's edges in opposite orders deadlock, and
// no single-function analysis can see it: the two halves of the
// inversion typically live in different functions, often different
// packages.
//
// Only module-wide mutexes participate (struct fields and package-level
// vars of type sync.Mutex/RWMutex; locals cannot be contended across
// functions). Edges come from a must-held analysis, so a path that
// provably releases A before taking B contributes nothing. The graph
// spans every loaded package, so an inversion split across sibling
// packages that do not import each other is still seen.
//
// Each offending acquisition site is reported in the package that
// contains it (the analyzer runs per package but consults the shared
// module graph), so a cycle spanning k packages produces one diagnostic
// per inverting site, each suppressible where it occurs.
var LockCycle = &Analyzer{
	Name: "lockcycle",
	Doc: "no cycles in the module-wide lock-order graph: a mutex acquired while " +
		"holding another (directly or through calls) must never be ordered both " +
		"ways — opposite-order goroutines deadlock",
	Run: runLockCycle,
}

func runLockCycle(pass *Pass) error {
	if pass.Program == nil {
		return nil
	}
	cg := pass.Program.callGraphOf(pass.Fset)
	edges := cg.moduleLockEdges()
	if len(edges) == 0 {
		return nil
	}

	adj := make(map[string][]string)
	have := make(map[string]bool)
	for _, e := range edges {
		k := e.held + "\x00" + e.acquired
		if !have[k] {
			have[k] = true
			adj[e.held] = append(adj[e.held], e.acquired)
		}
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}

	// Report only the acquisition sites that sit in this package's
	// files: the analyzer runs once per package, and every edge carries
	// the position of its acquiring (or calling) statement.
	own := make(map[string]bool, len(pass.Pkg.Files))
	for _, f := range pass.Pkg.Files {
		own[pass.Fset.Position(f.Pos()).Filename] = true
	}

	seen := make(map[string]bool)
	for _, e := range edges {
		if !e.pos.IsValid() || !own[pass.Fset.Position(e.pos).Filename] {
			continue
		}
		back := lockPath(adj, e.acquired, e.held)
		if back == nil {
			continue
		}
		key := fmt.Sprintf("%d\x00%s\x00%s", e.pos, e.held, e.acquired)
		if seen[key] {
			continue
		}
		seen[key] = true
		names := make([]string, len(back))
		for i, id := range back {
			names[i] = lockDisplayName(pass.Program, id)
		}
		via := ""
		if e.viaCall != "" {
			via = fmt.Sprintf(" (through the call to %s)", funcDisplayName(pass.Program, e.viaCall))
		}
		pass.Reportf(e.pos, "lock-order cycle: %s is acquired here while %s is held%s, but elsewhere the chain %s is established; "+
			"goroutines taking these locks in opposite orders deadlock — pick one global order",
			lockDisplayName(pass.Program, e.acquired), lockDisplayName(pass.Program, e.held), via,
			strings.Join(names, " → "))
	}
	return nil
}

// lockPath finds a path from src to dst in the lock-order graph (BFS,
// deterministic because successor lists are sorted), returning the node
// sequence src..dst, or nil when dst is unreachable.
func lockPath(adj map[string][]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, visited := prev[next]; visited {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []string
				for at := dst; at != ""; at = prev[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}
