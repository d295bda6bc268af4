package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// HotPath enforces allocation-freedom in the scan kernels. A function
// (declaration or literal) is opted in with a directive comment
//
//	//crisprlint:hotpath
//
// in its doc comment or on the line immediately above it. Inside such a
// function every heap-allocating construct is flagged: make/new,
// pointer, map and slice composite literals, append into a slice that
// is not provably preallocated in the same function, defer, closures,
// goroutine launches, string concatenation, string<->[]byte
// conversions, and (the type-aware part) interface boxing at call
// arguments and assignments. The message distinguishes per-iteration
// allocations (inside a loop body) from per-invocation ones — hotpath
// functions are the worker pool's repeated unit, so both matter.
//
// Conversions the gc compiler provably elides are exempt rather than
// pushed through //crisprlint:allow: a map-lookup key m[string(b)], a
// comparison or switch-tag operand, a range-over-conversion header,
// and len/cap of a conversion never materialize the copy, so flagging
// them would train people to ignore the analyzer. A conversion used as
// a map-STORE key is still flagged — insertion has to retain the key.
//
// The check is intentionally strict: justified allocations on cold
// sub-paths (error returns, trace-gated formatting) carry a
// //crisprlint:allow hotpath directive with the reason inline, so the
// exceptions are enumerable. cmd/perfgate is the companion gate that
// checks the same functions against the compiler's actual escape
// analysis.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "functions marked //crisprlint:hotpath (scan kernels, per-chunk closures) " +
		"must not allocate: no make/new/map/slice/pointer literals, growing append, " +
		"defer, closures, string concatenation or interface boxing",
	Run: runHotPath,
}

var hotpathRe = regexp.MustCompile(`^//crisprlint:hotpath(\s|$)`)

// HotFunc is one function opted into the hot-path contract.
type HotFunc struct {
	// Name is the function's display name; closures are the enclosing
	// declaration's name with a ".func" suffix.
	Name string
	// Pos and End span the whole function (signature through closing
	// brace).
	Pos, End token.Pos
	// Body is the function body.
	Body *ast.BlockStmt
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
}

// HotFuncs returns the functions in f marked //crisprlint:hotpath.
// It is exported for internal/perfgate, which attributes the
// compiler's verdicts to the same annotation set.
func HotFuncs(fset *token.FileSet, f *ast.File) []HotFunc {
	directiveLines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if hotpathRe.MatchString(c.Text) {
				directiveLines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	if len(directiveLines) == 0 {
		return nil
	}
	var out []HotFunc
	var declStack []string
	name := func() string {
		if len(declStack) == 0 {
			return "func"
		}
		return declStack[len(declStack)-1] + ".func"
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			declStack = append(declStack, declName(n))
			if hotMarked(fset, n, n.Doc, directiveLines) {
				out = append(out, HotFunc{Name: declName(n), Pos: n.Pos(), End: n.End(), Body: n.Body, Node: n})
			}
			ast.Inspect(n.Body, walk)
			declStack = declStack[:len(declStack)-1]
			return false
		case *ast.FuncLit:
			if hotMarked(fset, n, nil, directiveLines) {
				out = append(out, HotFunc{Name: name(), Pos: n.Pos(), End: n.End(), Body: n.Body, Node: n})
			}
			return true
		}
		return true
	}
	ast.Inspect(f, walk)
	return out
}

func declName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		return "(" + typeString(d.Recv.List[0].Type) + ")." + d.Name.Name
	}
	return d.Name.Name
}

func typeString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeString(e.X)
	case *ast.IndexExpr:
		return typeString(e.X)
	}
	return "?"
}

// hotMarked reports whether the function starting at n carries the
// directive: in its doc group, or on its own line, or the line above.
func hotMarked(fset *token.FileSet, n ast.Node, doc *ast.CommentGroup, directiveLines map[int]bool) bool {
	if doc != nil {
		for _, c := range doc.List {
			if hotpathRe.MatchString(c.Text) {
				return true
			}
		}
	}
	line := fset.Position(n.Pos()).Line
	return directiveLines[line] || directiveLines[line-1]
}

func runHotPath(pass *Pass) error {
	ti := pass.Types()
	for _, f := range pass.Pkg.Files {
		for _, hf := range HotFuncs(pass.Fset, f) {
			checkHotFunc(pass, ti, hf)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, ti *TypeInfo, hf HotFunc) {
	loops := loopRanges(hf.Node)
	site := func(pos token.Pos) string {
		if inAnyRange(loops, pos) {
			return "on every loop iteration"
		}
		return "on every invocation"
	}
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		pass.Reportf(pos, "hot path %s: %s %s; hoist it out of the kernel or justify with //crisprlint:allow hotpath",
			hf.Name, msg, site(pos))
	}
	prealloc := preallocatedSlices(hf.Body)
	elided := collectElidedConversions(ti, hf.Body)
	ast.Inspect(hf.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal allocates")
			return true // its body is still hot: keep descending
		case *ast.DeferStmt:
			report(n.Pos(), "defer allocates a frame record")
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launch allocates a stack")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "pointer composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			if compositeAllocates(ti, n) {
				report(n.Pos(), "map/slice composite literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(ti, n.X) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			checkHotCall(ti, n, prealloc, elided, report)
		}
		return true
	})
}

// preallocatedSlices collects the names of slice variables the function
// provably sizes up front: assigned from a make with an explicit
// capacity, or from a make with a nonzero length.
func preallocatedSlices(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
			return
		}
		if len(call.Args) >= 3 {
			out[id.Name] = true
		}
		if len(call.Args) == 2 {
			if lit, ok := call.Args[1].(*ast.BasicLit); !ok || lit.Value != "0" {
				out[id.Name] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

func checkHotCall(ti *TypeInfo, call *ast.CallExpr, prealloc map[string]bool, elided map[*ast.CallExpr]bool, report func(pos token.Pos, format string, args ...any)) {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltinUse(ti, id) {
		switch id.Name {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			if len(call.Args) == 0 {
				return
			}
			switch target := call.Args[0].(type) {
			case *ast.SliceExpr:
				// append(buf[:0], ...) is explicit reuse.
			case *ast.Ident:
				if !prealloc[target.Name] {
					report(call.Pos(), "append may grow %s (not preallocated in this function)", target.Name)
				}
			default:
				report(call.Pos(), "append may grow a non-preallocated slice")
			}
		}
		return
	}
	// Explicit conversion to an interface type, or a copying
	// string<->[]byte conversion outside the compiler-elided forms.
	if tv, ok := ti.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if argBoxes(ti, call.Args[0]) {
				report(call.Pos(), "conversion to %s boxes its operand", tv.Type)
			}
		}
		if desc := stringBytesConv(ti, call); desc != "" && !elided[call] {
			report(call.Pos(), "%s copies its operand", desc)
		}
		return
	}
	// Interface boxing at call arguments: a concrete, non-pointer-shaped
	// argument passed where the callee expects an interface allocates.
	sig := signatureOf(ti, call.Fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if argBoxes(ti, arg) {
			report(arg.Pos(), "passing %s as %s boxes the value", exprTypeString(ti, arg), pt)
		}
	}
}

// isBuiltinUse reports whether id resolves to a universe builtin (or is
// unresolved, in which case the builtin names are trusted — keeps the
// analyzer useful when type information is partial).
func isBuiltinUse(ti *TypeInfo, id *ast.Ident) bool {
	if obj, ok := ti.Info.Uses[id]; ok {
		_, builtin := obj.(*types.Builtin)
		return builtin
	}
	switch id.Name {
	case "make", "new", "append":
		return true
	}
	return false
}

func signatureOf(ti *TypeInfo, fun ast.Expr) *types.Signature {
	tv, ok := ti.Info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// argBoxes reports whether passing arg to an interface-typed slot
// allocates: the static type must be known, concrete, and not
// pointer-shaped. Constants are exempt — the compiler backs them with
// static interface data, no runtime allocation.
func argBoxes(ti *TypeInfo, arg ast.Expr) bool {
	tv, ok := ti.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || tv.Value != nil || types.IsInterface(tv.Type) {
		return false
	}
	return !pointerShaped(tv.Type)
}

func exprTypeString(ti *TypeInfo, e ast.Expr) string {
	if tv, ok := ti.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "value"
}

func isStringExpr(ti *TypeInfo, e ast.Expr) bool {
	tv, ok := ti.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringBytesConv reports whether call is a conversion between string
// and []byte (or []rune) that copies at runtime, returning a short
// description ("" if not). Constant operands are exempt: the compiler
// folds those at build time.
func stringBytesConv(ti *TypeInfo, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	ftv, ok := ti.Info.Types[call.Fun]
	if !ok || !ftv.IsType() {
		return ""
	}
	atv, ok := ti.Info.Types[call.Args[0]]
	if !ok || atv.Type == nil || atv.Value != nil {
		return ""
	}
	dst, src := ftv.Type, atv.Type
	switch {
	case isStringType(dst) && isByteOrRuneSlice(src):
		return fmt.Sprintf("conversion %s to string", src)
	case isByteOrRuneSlice(dst) && isStringType(src):
		return fmt.Sprintf("conversion string to %s", dst)
	}
	return ""
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func isMapIndex(ti *TypeInfo, n *ast.IndexExpr) bool {
	tv, ok := ti.Info.Types[n.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// collectElidedConversions records the string<->[]byte conversion calls
// the gc compiler elides, so checkHotCall can skip them: map-lookup
// keys (m[string(b)] reads, not stores), comparison operands, switch
// tags, range-over-conversion headers, and len/cap arguments.
func collectElidedConversions(ti *TypeInfo, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	elided := make(map[*ast.CallExpr]bool)
	mark := func(e ast.Expr) {
		if call, ok := unparen(e).(*ast.CallExpr); ok && stringBytesConv(ti, call) != "" {
			elided[call] = true
		}
	}
	// Map-store keys must be materialized; collect them first so the
	// IndexExpr pass below can skip them.
	storeKeys := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
					storeKeys[ix.Index] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if isMapIndex(ti, n) && !storeKeys[n.Index] {
				mark(n.Index)
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				mark(n.X)
				mark(n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				mark(n.Tag)
			}
		case *ast.RangeStmt:
			mark(n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && isBuiltinUse(ti, id) &&
				(id.Name == "len" || id.Name == "cap") && len(n.Args) == 1 {
				mark(n.Args[0])
			}
		}
		return true
	})
	return elided
}

// compositeAllocates reports whether the literal builds a map or slice
// (struct and array values live on the stack unless they escape — the
// escape gate covers those).
func compositeAllocates(ti *TypeInfo, lit *ast.CompositeLit) bool {
	if tv, ok := ti.Info.Types[lit]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Map, *types.Slice:
			return true
		}
		return false
	}
	// Syntactic fallback when the checker had no answer.
	switch t := lit.Type.(type) {
	case *ast.MapType:
		return true
	case *ast.ArrayType:
		return t.Len == nil
	}
	return false
}
