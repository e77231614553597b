package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"superfe/internal/lint/analysis"
)

// HotPathAlloc enforces the zero-allocation contract of the
// per-packet path: every function annotated //superfe:hotpath — and
// everything it statically calls inside this module — must be free
// of allocation-causing constructs:
//
//   - calls into package fmt (formatting always allocates);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - map literals and make(map), new(T);
//   - function literals (closures generally heap-allocate their
//     captures);
//   - append to a function-local slice that was not created with an
//     explicit capacity (append to fields, parameters and
//     capacity-made locals is allowed: those are the engine's
//     preallocated, recycled buffers);
//   - interface boxing: passing or assigning a concrete non-pointer
//     value where an interface is expected.
//
// Traversal stops at //superfe:coldpath functions (declared
// amortized/error paths), at interface method calls and at dynamic
// function values, which static analysis cannot resolve — code reached
// only through one must carry its own hotpath annotation. A finding
// can be suppressed with //superfe:alloc-ok <reason> on (or
// immediately above) the offending line.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "check //superfe:hotpath functions (and their static module callees) for allocating constructs",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	graph := graphFor(pass.Prog)
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || visited[fn] {
			return
		}
		visited[fn] = true
		fd := graph.FuncDecl(fn)
		if fd == nil || fd.Body == nil {
			return // outside the module, or bodyless
		}
		if funcDirective(fd, "coldpath") {
			return
		}
		owner := graph.PackageOf(fn)
		if owner == nil {
			return
		}
		c := &hotChecker{
			pass:  pass,
			pkg:   owner,
			dirs:  newDirectives(pass.Fset, owner.Files),
			fn:    fn,
			calls: visit,
		}
		c.check(fd)
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !funcDirective(fd, "hotpath") {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			visit(fn)
		}
	}
	return nil
}

// hotChecker scans one function body with the type info of the
// package that owns it (which may differ from the pass package when
// the hot path crosses package boundaries).
type hotChecker struct {
	pass  *analysis.Pass
	pkg   *analysis.Package
	dirs  *directives
	fn    *types.Func
	calls func(*types.Func)
	// prealloc holds locals created with an explicit capacity
	// (3-argument make); appends to them are fine.
	prealloc map[*types.Var]bool
}

func (c *hotChecker) report(n ast.Node, format string, args ...any) {
	if c.dirs.at(n.Pos(), "alloc-ok") {
		return
	}
	c.pass.Reportf(n.Pos(), "hot path: "+c.fn.Name()+" "+format, args...)
}

func (c *hotChecker) check(fd *ast.FuncDecl) {
	c.prealloc = map[*types.Var]bool{}
	// First sweep: find capacity-made locals.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			if i >= len(asg.Lhs) {
				break
			}
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if call, ok := rhs.(*ast.CallExpr); ok && c.isBuiltin(call, "make") && len(call.Args) == 3 {
				if v, ok := c.objOf(id).(*types.Var); ok {
					c.prealloc[v] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, c.inspect)
}

func (c *hotChecker) inspect(n ast.Node) bool {
	info := c.pkg.Info
	switch n := n.(type) {
	case *ast.FuncLit:
		c.report(n, "creates a closure (captures may heap-allocate); hoist to a named function")
		return false // the literal's body is not on the static hot path
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(info.Types[n.X].Type) {
			c.report(n, "concatenates strings")
		}
	case *ast.CompositeLit:
		if t := info.Types[n].Type; t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.report(n, "builds a map literal")
			}
		}
	case *ast.AssignStmt:
		c.checkAssignBoxing(n)
	case *ast.ReturnStmt:
		c.checkReturnBoxing(n)
	case *ast.CallExpr:
		c.checkCall(n)
	}
	return true
}

// checkAssignBoxing flags assignments that store a concrete
// non-pointer value into an interface-typed destination — the boxing
// escape the call-argument check misses when the interface travels
// through a variable or field instead of a parameter.
func (c *hotChecker) checkAssignBoxing(asg *ast.AssignStmt) {
	if asg.Tok == token.DEFINE {
		return // := infers the type from the RHS, no boxing introduced
	}
	if len(asg.Lhs) != len(asg.Rhs) {
		return // tuple assignment: RHS types mirror the LHS, no boxing introduced
	}
	info := c.pkg.Info
	for i, lhs := range asg.Lhs {
		lt := info.Types[lhs].Type
		if lt == nil {
			continue
		}
		if _, ok := lt.Underlying().(*types.Interface); !ok {
			continue
		}
		rt := info.Types[asg.Rhs[i]].Type
		if rt == nil || boxFree(rt) {
			continue
		}
		c.report(asg.Rhs[i], "boxes a %s into an interface on assignment", rt.String())
	}
}

// checkReturnBoxing flags returns of concrete non-pointer values from
// interface-typed results.
func (c *hotChecker) checkReturnBoxing(ret *ast.ReturnStmt) {
	sig, ok := c.fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	info := c.pkg.Info
	for i, e := range ret.Results {
		if _, ok := sig.Results().At(i).Type().Underlying().(*types.Interface); !ok {
			continue
		}
		rt := info.Types[e].Type
		if rt == nil || boxFree(rt) {
			continue
		}
		c.report(e, "boxes a %s into an interface result", rt.String())
	}
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	info := c.pkg.Info
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case isString(dst) && isByteOrRuneSlice(src.Underlying()):
			c.report(call, "converts []byte/[]rune to string (copies)")
		case isByteOrRuneSlice(dst) && isString(src.Underlying()):
			c.report(call, "converts string to a byte/rune slice (copies)")
		}
		return
	}
	// Builtin?
	if name := c.builtinName(call); name != "" {
		switch name {
		case "make":
			if t := info.Types[call].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.report(call, "makes a map")
				}
			}
		case "new":
			c.report(call, "calls new (heap allocation)")
		case "append":
			c.checkAppend(call)
		}
		return
	}
	callee := staticCallee(c.pkg.Info, call)
	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt":
			c.report(call, "calls fmt."+callee.Name())
			return
		}
	}
	c.checkBoxing(call)
	if callee != nil && callee.Pkg() != nil && isModulePath(c.pass.Prog.ModulePath, callee.Pkg().Path()) {
		c.calls(callee)
	}
}

// checkAppend flags appends whose destination is a function-local
// slice created without an explicit capacity. Fields, parameters,
// package variables and sliced expressions are assumed to be the
// engine's preallocated buffers.
func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.objOf(id).(*types.Var)
	if !ok || c.prealloc[v] || v.IsField() {
		return
	}
	// Parameters and package-level variables pass: presizing is the
	// caller's (or initialization's) responsibility.
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return // package scope
	}
	if c.isParam(v) {
		return
	}
	c.report(call, "appends to %s, a local declared without capacity (use make(T, 0, n))", id.Name)
}

func (c *hotChecker) isParam(v *types.Var) bool {
	sig, ok := c.fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == v {
			return true
		}
	}
	if r := sig.Recv(); r == v && r != nil {
		return true
	}
	return false
}

// checkBoxing flags concrete non-pointer arguments passed to
// interface-typed parameters.
func (c *hotChecker) checkBoxing(call *ast.CallExpr) {
	info := c.pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	if call.Ellipsis.IsValid() {
		return // x... re-slices, no per-element boxing
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || boxFree(at) {
			continue
		}
		c.report(arg, "boxes a %s into an interface parameter", at.String())
	}
}

// boxFree reports whether storing a value of type t in an interface
// needs no allocation: pointer-shaped values go in the data word
// directly, nils and interfaces are free.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

func (c *hotChecker) objOf(id *ast.Ident) types.Object {
	if o := c.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return c.pkg.Info.Defs[id]
}

func (c *hotChecker) isBuiltin(call *ast.CallExpr, name string) bool {
	return c.builtinName(call) == name
}

func (c *hotChecker) builtinName(call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := c.objOf(id).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isModulePath(module, path string) bool {
	return path == module || len(path) > len(module) && path[:len(module)] == module && path[len(module)] == '/'
}
