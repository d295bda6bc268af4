package analysis

// A deliberately small per-function control-flow helper for the typed
// analyzers. Two abstractions are exported to the rest of the package:
//
//   - loopRanges: the source spans of loop bodies inside a function,
//     used by hotpath to classify an allocation as per-iteration versus
//     per-invocation;
//   - funcCFG: basic blocks over ast.Stmt with approximate successor
//     edges, used by lockorder's forward must-analysis ("is this mutex
//     held on all paths reaching this access?"), loopinvariant's
//     must-execution check, spanend's may-analysis, and the
//     interprocedural tier's termination and lock-edge facts.
//
// The CFG is approximate in ways that are safe for a must-analysis
// whose findings can be suppressed: goto edges jump straight to the
// exit block, and function literals are opaque statements (their
// bodies are analyzed separately, or not at all, by each analyzer's
// choice). Labeled break/continue resolve to their named loop or
// switch (the interprocedural tier's termination check depends on
// `break outer` actually leaving the outer loop); an unknown label
// degrades to the exit block. A `select` without a default clause
// blocks until a case fires, so — unlike a switch — it contributes no
// fall-through edge, and the empty `select{}` is modeled as diverging.
// Unreachable blocks start from the full universe, so dead code never
// produces findings.

import (
	"go/ast"
	"go/token"
)

// loopRanges returns the [lbrace, rbrace] source spans of every loop
// body (for and range statements) under root, including nested loops.
// Function literals are not descended into: a closure's body belongs to
// the closure's own classification.
func loopRanges(root ast.Node) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			if n != root {
				return false
			}
		case *ast.ForStmt:
			out = append(out, [2]token.Pos{s.Body.Lbrace, s.Body.Rbrace})
		case *ast.RangeStmt:
			out = append(out, [2]token.Pos{s.Body.Lbrace, s.Body.Rbrace})
		}
		return true
	})
	return out
}

// inAnyRange reports whether pos falls inside one of the spans.
func inAnyRange(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if pos > r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// cfgBlock is one basic block: a sequence of leaf nodes (simple
// statements and branch-condition expressions — never compound
// statements, so walking a node never crosses a block boundary) plus
// successor edges.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

// buildCFG constructs the graph for a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}}
	b.cfg.entry = b.newBlock()
	b.cfg.exit = b.newBlock()
	last := b.stmtList(b.cfg.entry, body.List)
	b.edge(last, b.cfg.exit)
	return b.cfg
}

type cfgBuilder struct {
	cfg *funcCFG
	// breakTargets / continueTargets are the innermost-first stacks the
	// corresponding branch statements resolve against.
	breakTargets    []*cfgBlock
	continueTargets []*cfgBlock
	// pendingLabels holds the labels of the LabeledStmts currently
	// being lowered, consumed by the loop or switch they name (several
	// labels may stack on one statement). Any statement that is not a
	// labeled loop/switch drops them: they remain goto targets only.
	pendingLabels []string
	// labelBreak / labelCont resolve labeled branch statements to the
	// exit and header blocks of the construct carrying the label.
	labelBreak map[string]*cfgBlock
	labelCont  map[string]*cfgBlock
}

// takeLabels consumes the pending labels for the construct being built.
func (b *cfgBuilder) takeLabels() []string {
	l := b.pendingLabels
	b.pendingLabels = nil
	return l
}

// registerLabels maps each label to its break target and, for loops,
// its continue target.
func (b *cfgBuilder) registerLabels(labels []string, brk, cont *cfgBlock) {
	if len(labels) == 0 {
		return
	}
	if b.labelBreak == nil {
		b.labelBreak = make(map[string]*cfgBlock)
		b.labelCont = make(map[string]*cfgBlock)
	}
	for _, label := range labels {
		b.labelBreak[label] = brk
		if cont != nil {
			b.labelCont[label] = cont
		}
	}
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// stmtList threads the statements through cur and returns the block
// control falls out of (nil when the list always diverts, e.g. ends in
// return).
func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	if cur == nil {
		// Unreachable code after a terminating statement: give it its
		// own predecessor-less block so the dataflow treats it as top.
		cur = b.newBlock()
	}
	// Labels bind only to the statement they prefix; anything that is
	// not a loop or switch drops them (they stay goto targets only).
	labels := b.takeLabels()
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenEnd := b.stmtList(thenB, s.Body.List)
		join := b.newBlock()
		b.edge(thenEnd, join)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseEnd := b.stmt(elseB, s.Else)
			b.edge(elseEnd, join)
		} else {
			b.edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		header := b.newBlock()
		b.edge(cur, header)
		if s.Cond != nil {
			header.nodes = append(header.nodes, s.Cond)
		}
		exit := b.newBlock()
		bodyB := b.newBlock()
		b.edge(header, bodyB)
		if s.Cond != nil {
			b.edge(header, exit)
		}
		b.registerLabels(labels, exit, header)
		b.breakTargets = append(b.breakTargets, exit)
		b.continueTargets = append(b.continueTargets, header)
		bodyEnd := b.stmtList(bodyB, s.Body.List)
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		if s.Post != nil {
			bodyEnd = b.stmt(bodyEnd, s.Post)
		}
		b.edge(bodyEnd, header)
		return exit

	case *ast.RangeStmt:
		header := b.newBlock()
		b.edge(cur, header)
		header.nodes = append(header.nodes, s.X)
		exit := b.newBlock()
		b.edge(header, exit) // empty collection
		bodyB := b.newBlock()
		b.edge(header, bodyB)
		b.registerLabels(labels, exit, header)
		b.breakTargets = append(b.breakTargets, exit)
		b.continueTargets = append(b.continueTargets, header)
		bodyEnd := b.stmtList(bodyB, s.Body.List)
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		b.edge(bodyEnd, header)
		return exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(cur, s, labels)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.cfg.exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t, ok := b.labelBreak[s.Label.Name]; ok {
					b.edge(cur, t)
				} else {
					b.edge(cur, b.cfg.exit)
				}
			} else if n := len(b.breakTargets); n > 0 {
				b.edge(cur, b.breakTargets[n-1])
			} else {
				b.edge(cur, b.cfg.exit)
			}
			return nil
		case token.CONTINUE:
			if s.Label != nil {
				if t, ok := b.labelCont[s.Label.Name]; ok {
					b.edge(cur, t)
				} else {
					b.edge(cur, b.cfg.exit)
				}
			} else if n := len(b.continueTargets); n > 0 {
				b.edge(cur, b.continueTargets[n-1])
			} else {
				b.edge(cur, b.cfg.exit)
			}
			return nil
		case token.GOTO:
			b.edge(cur, b.cfg.exit)
			return nil
		}
		// fallthrough is handled by switchLike.
		return cur

	case *ast.LabeledStmt:
		b.pendingLabels = append(labels, s.Label.Name)
		out := b.stmt(cur, s.Stmt)
		b.pendingLabels = nil
		return out

	default:
		// Assignments, expression statements, declarations, defer, go,
		// send, incdec, empty: leaf nodes with straight-line flow.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchLike lowers switch, type-switch and select: every clause
// branches from the header and joins after; an explicit fallthrough
// adds clause→next-clause. A switch missing a default adds a
// header→join edge (no case may match); a select missing a default
// does NOT — it blocks until a case fires, so control reaches the join
// only through a clause body, and the empty `select{}` diverges.
func (b *cfgBuilder) switchLike(cur *cfgBlock, s ast.Stmt, labels []string) *cfgBlock {
	var clauses []ast.Stmt
	hasDefault := false
	isSelect := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		isSelect = true
	}
	join := b.newBlock()
	b.registerLabels(labels, join, nil)
	b.breakTargets = append(b.breakTargets, join)
	bodies := make([]*cfgBlock, len(clauses))
	ends := make([]*cfgBlock, len(clauses))
	for i, cl := range clauses {
		bodyB := b.newBlock()
		b.edge(cur, bodyB)
		bodies[i] = bodyB
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				bodyB.nodes = append(bodyB.nodes, e)
			}
			list = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				list = append([]ast.Stmt{cl.Comm}, cl.Body...)
			}
			if list == nil {
				list = cl.Body
			}
		}
		end := b.stmtList(bodyB, trimFallthrough(list))
		if hasFallthrough(list) && i+1 < len(clauses) {
			// The edge to the next clause body is wired after all bodies
			// exist; remember via ends and patch below.
			ends[i] = end
			continue
		}
		b.edge(end, join)
		ends[i] = nil
	}
	for i, end := range ends {
		if end != nil && i+1 < len(clauses) {
			b.edge(end, bodies[i+1])
		}
	}
	if !hasDefault && !isSelect {
		b.edge(cur, join)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	return join
}

func hasFallthrough(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	br, ok := list[len(list)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func trimFallthrough(list []ast.Stmt) []ast.Stmt {
	if hasFallthrough(list) {
		return list[:len(list)-1]
	}
	return list
}

// mustHeld runs a forward must-analysis over the CFG: fact f is in the
// result set at a node when every path from the entry to that node has
// generated f without a subsequent kill. gen and kill are evaluated on
// leaf nodes only (the builder guarantees compound statements never
// appear as nodes). universe is the set of all facts; blocks not yet
// reached start at the full universe so unreachable code yields no
// findings.
//
// The returned visit function replays the converged analysis: it walks
// every block's nodes in order, calling check(node, held) with the held
// set in effect immediately before the node's own gen/kill apply.
// exitIn is the converged must-set at the function's exit block — the
// facts guaranteed to hold when control falls off the end of the body
// or leaves through any return (an unreachable exit reports the full
// universe, so diverging functions yield no exit findings).
func (c *funcCFG) mustHeld(universe map[string]bool, genKill func(n ast.Node, held map[string]bool)) (visit func(check func(n ast.Node, held map[string]bool)), exitIn map[string]bool) {
	in := make(map[*cfgBlock]map[string]bool, len(c.blocks))
	full := func() map[string]bool {
		m := make(map[string]bool, len(universe))
		for k := range universe {
			m[k] = true
		}
		return m
	}
	for _, blk := range c.blocks {
		in[blk] = full()
	}
	in[c.entry] = map[string]bool{}

	preds := make(map[*cfgBlock][]*cfgBlock, len(c.blocks))
	for _, blk := range c.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk)
		}
	}
	transfer := func(blk *cfgBlock) map[string]bool {
		held := make(map[string]bool, len(in[blk]))
		for k := range in[blk] {
			held[k] = true
		}
		for _, n := range blk.nodes {
			genKill(n, held)
		}
		return held
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range c.blocks {
			if blk == c.entry {
				continue
			}
			var merged map[string]bool
			ps := preds[blk]
			if len(ps) == 0 {
				continue // unreachable: stays at the full universe
			}
			merged = transfer(ps[0])
			for _, p := range ps[1:] {
				out := transfer(p)
				for k := range merged {
					if !out[k] {
						delete(merged, k)
					}
				}
			}
			if !sameSet(in[blk], merged) {
				in[blk] = merged
				changed = true
			}
		}
	}
	return func(check func(n ast.Node, held map[string]bool)) {
		for _, blk := range c.blocks {
			held := make(map[string]bool, len(in[blk]))
			for k := range in[blk] {
				held[k] = true
			}
			for _, n := range blk.nodes {
				check(n, held)
				genKill(n, held)
			}
		}
	}, in[c.exit]
}

// mayHold is the dual of mustHeld: a forward may-analysis where fact f
// is in the result set at a node when SOME path from the entry has
// generated f without a subsequent kill — joins union instead of
// intersecting, and blocks start empty (unreachable code stays empty,
// so dead code never produces findings).
//
// exitIn is the converged may-set at the function's exit block: the
// facts that reach the end of the body, or any return, on at least one
// path without being killed. spanend uses it for "this span's end
// function may leak out of the function without being called".
func (c *funcCFG) mayHold(genKill func(n ast.Node, facts map[string]bool)) (visit func(check func(n ast.Node, facts map[string]bool)), exitIn map[string]bool) {
	in := make(map[*cfgBlock]map[string]bool, len(c.blocks))
	for _, blk := range c.blocks {
		in[blk] = map[string]bool{}
	}
	preds := make(map[*cfgBlock][]*cfgBlock, len(c.blocks))
	for _, blk := range c.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk)
		}
	}
	transfer := func(blk *cfgBlock) map[string]bool {
		facts := make(map[string]bool, len(in[blk]))
		for k := range in[blk] {
			facts[k] = true
		}
		for _, n := range blk.nodes {
			genKill(n, facts)
		}
		return facts
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range c.blocks {
			if blk == c.entry {
				continue
			}
			merged := map[string]bool{}
			for _, p := range preds[blk] {
				for k := range transfer(p) {
					merged[k] = true
				}
			}
			if !sameSet(in[blk], merged) {
				in[blk] = merged
				changed = true
			}
		}
	}
	return func(check func(n ast.Node, facts map[string]bool)) {
		for _, blk := range c.blocks {
			facts := make(map[string]bool, len(in[blk]))
			for k := range in[blk] {
				facts[k] = true
			}
			for _, n := range blk.nodes {
				check(n, facts)
				genKill(n, facts)
			}
		}
	}, in[c.exit]
}

// exitReachable reports whether the function's exit block is reachable
// from the entry, treating any block that diverges (per the predicate,
// e.g. "this node calls a function that never returns") as a dead end.
// It is the interprocedural tier's termination test: a goroutine body
// whose exit is unreachable has no path that ever lets it finish.
func (c *funcCFG) exitReachable(diverges func(n ast.Node) bool) bool {
	seen := make(map[*cfgBlock]bool, len(c.blocks))
	var walk func(blk *cfgBlock) bool
	walk = func(blk *cfgBlock) bool {
		if seen[blk] {
			return false
		}
		seen[blk] = true
		if blk == c.exit {
			return true
		}
		for _, n := range blk.nodes {
			if diverges != nil && diverges(n) {
				return false
			}
		}
		for _, s := range blk.succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(c.entry)
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
