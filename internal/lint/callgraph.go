package lint

import (
	"go/ast"
	"go/types"
	"sync"

	"superfe/internal/lint/analysis"
)

// callGraph is the interprocedural static call graph of one loaded
// Program: every resolvable call edge between module-local functions,
// including calls made through go and defer statements. Dynamic edges
// — interface method calls, calls of function values — are not
// represented; analyzers that traverse the graph treat them as
// traversal stops, the same contract hotpathalloc has always had.
//
// The graph is built once per Program and shared by every analyzer in
// the run (the driver applies each analyzer to each target package, so
// without memoization the graph would be rebuilt targets × analyzers
// times).
type callGraph struct {
	prog *analysis.Program
	// callees maps a function to the module-local functions it calls
	// directly, in source order (duplicates preserved: one entry per
	// call site).
	callees map[*types.Func][]*types.Func
	// decl maps module-local functions to their syntax.
	decl map[*types.Func]*ast.FuncDecl
	// pkgOf maps module-local functions to the package owning their
	// body (whose types.Info annotates it).
	pkgOf map[*types.Func]*analysis.Package
	// closeSites records every types.Object (variable or struct field)
	// whose channel is the argument of a close() call anywhere in the
	// module — the evidence goroutineleak accepts for a closed-channel
	// shutdown edge.
	closeSites map[types.Object]bool
}

var (
	graphMu    sync.Mutex
	graphCache = map[*analysis.Program]*callGraph{}
)

// graphFor returns the memoized call graph of the pass's program.
func graphFor(prog *analysis.Program) *callGraph {
	graphMu.Lock()
	defer graphMu.Unlock()
	if g, ok := graphCache[prog]; ok {
		return g
	}
	g := buildCallGraph(prog)
	graphCache[prog] = g
	return g
}

func buildCallGraph(prog *analysis.Program) *callGraph {
	g := &callGraph{
		prog:       prog,
		callees:    map[*types.Func][]*types.Func{},
		decl:       map[*types.Func]*ast.FuncDecl{},
		pkgOf:      map[*types.Func]*analysis.Package{},
		closeSites: map[types.Object]bool{},
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decl[fn] = fd
				g.pkgOf[fn] = pkg
				g.scanBody(pkg, fn, fd.Body)
			}
		}
	}
	return g
}

// scanBody records the call edges and close() sites of one function
// body. Function literals nested in the body are charged to the
// enclosing declared function: their calls run (at the latest) when
// the closure does, and for close-site evidence the distinction is
// irrelevant.
func (g *callGraph) scanBody(pkg *analysis.Package, fn *types.Func, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(pkg.Info, call, "close") && len(call.Args) == 1 {
			if obj := rootObject(pkg.Info, call.Args[0]); obj != nil {
				g.closeSites[obj] = true
			}
			return true
		}
		if callee := staticCallee(pkg.Info, call); callee != nil {
			g.callees[fn] = append(g.callees[fn], callee)
		}
		return true
	})
}

// FuncDecl returns the syntax of a module-local function, or nil.
func (g *callGraph) FuncDecl(fn *types.Func) *ast.FuncDecl { return g.decl[fn] }

// PackageOf returns the package owning a module-local function's body.
func (g *callGraph) PackageOf(fn *types.Func) *analysis.Package { return g.pkgOf[fn] }

// ChannelClosed reports whether a close() call on the given variable
// or field object exists anywhere in the module.
func (g *callGraph) ChannelClosed(obj types.Object) bool { return g.closeSites[obj] }

// staticCallee resolves the function a call expression invokes when
// the target is static: a package-level function, a qualified import,
// or a method on a concrete receiver. Interface method calls and
// dynamic function values resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := sel.Recv(); recv != nil {
				if _, isIface := recv.Underlying().(*types.Interface); isIface {
					return nil // dynamic dispatch
				}
			}
			return fn
		}
		// Qualified identifier (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == name
}

// rootObject resolves the object an expression ultimately denotes for
// identity purposes: the variable of an identifier, the field of a
// selector, the element's container for an index expression. Used to
// match close(x.ch) sites against goroutines ranging over x.ch.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootObject(info, e.X)
	case *ast.StarExpr:
		return rootObject(info, e.X)
	}
	return nil
}
