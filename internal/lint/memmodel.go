package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"superfe/internal/lint/analysis"
)

// This file holds the memmodel analyzer family's shared machinery and
// the first member, memmodelatomic. The family mechanically checks the
// lock-free discipline the SPSC ring hand-off (internal/core/ring.go)
// rests on:
//
//	memmodelatomic   every field touched via sync/atomic anywhere in
//	                 the module is only ever accessed atomically,
//	                 module-wide, with a flow exemption for the
//	                 construction phase; structs carrying such fields
//	                 or sync locks are never copied by value.
//	memmodelrole     //superfe:producer and //superfe:consumer
//	                 annotations partition methods so no sequence
//	                 field is written from both sides of an SPSC pair;
//	                 //superfe:padded structs really contain
//	                 cache-line pads and are never embedded, copied,
//	                 or element-packed in a way that breaks alignment.
//	memmodelpublish  inside role-annotated code, plain slot writes are
//	                 followed by an atomic release store and plain
//	                 slot reads are preceded by an atomic acquire load
//	                 (the store-index-then-release pattern).

// atomicVerbs are the sync/atomic operation stems, longest first so
// CompareAndSwapUint64 does not classify as "And".
var atomicVerbs = []string{"CompareAndSwap", "Load", "Store", "Add", "Swap", "Or", "And"}

// atomicFieldOp resolves a sync/atomic operation applied to a struct
// field — either the method form x.f.Store(v) or the legacy function
// form atomic.StoreUint64(&x.f, v) — and returns the field object and
// the operation stem ("Load", "Store", "Add", ...). Calls that are not
// atomic ops on a field return (nil, "").
func atomicFieldOp(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, ""
	}
	verb := ""
	for _, v := range atomicVerbs {
		if strings.HasPrefix(fn.Name(), v) {
			verb = v
			break
		}
	}
	if verb == "" {
		return nil, ""
	}
	var fld types.Object
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Method form: the receiver expression names the field.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			fld = fieldObject(info, sel.X)
		}
	} else if len(call.Args) > 0 {
		// Function form: the address-of first argument names the field.
		if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
			fld = fieldObject(info, un.X)
		}
	}
	if fld == nil {
		return nil, ""
	}
	return fld, verb
}

// isSeqField reports whether a field can carry an SPSC sequence: an
// integer sync/atomic type (atomic.Uint64 and friends) or a plain
// integer reached through legacy atomic functions. atomic.Bool,
// atomic.Value and atomic.Pointer are deliberately excluded — park
// flags and the like are legitimately touched from both sides of a
// ring, only the monotonic sequence counters are role-owned.
func isSeqField(fld types.Object) bool {
	t := fld.Type()
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			switch obj.Name() {
			case "Int32", "Int64", "Uint32", "Uint64", "Uintptr":
				return true
			}
			return false
		}
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return true
	}
	return false
}

// MemModelAtomic enforces the access discipline the sharded engine
// and the obs registry rest on: a struct field that is ever touched
// through sync/atomic is an atomic field, and every other access to it
// (or to its elements, for slice/array fields like the registry's flat
// value array) anywhere in the module must also go through
// sync/atomic. Mixed access is a data race the race detector only
// catches when a test happens to interleave it; the type-based check
// catches it on every build. The check is flow-sensitive about
// construction: a non-atomic access through a variable the enclosing
// function itself initialized from a composite literal or new() is a
// pre-publication write and needs no waiver.
//
// It additionally flags by-value copies, in the target package, of
// structs that contain atomic fields or sync.Mutex/RWMutex/WaitGroup/
// Once fields (value parameters, value receivers, assignments from a
// dereference): the copy silently forks the synchronization state.
//
// Single-threaded phases that legitimately touch atomic fields
// non-atomically (registration before the pipeline starts, teardown
// after quiescence) are suppressed with //superfe:atomic-ok <reason>
// on (or immediately above) the offending line.
var MemModelAtomic = &analysis.Analyzer{
	Name: "memmodelatomic",
	Doc:  "require module-wide atomic access to atomically-touched fields declared in this package (construction-phase accesses exempt); flag copies of lock/atomic-bearing structs",
	Run:  runMemModelAtomic,
}

func runMemModelAtomic(pass *analysis.Pass) error {
	all := collectAtomicFields(pass.Prog)
	checkSyncCopies(pass, all)
	mine := map[types.Object]bool{}
	for fld := range all {
		if fld.Pkg() == pass.Pkg {
			mine[fld] = true
		}
	}
	if len(mine) == 0 {
		return nil
	}
	for _, pkg := range pass.Prog.Packages {
		dirs := newDirectives(pass.Fset, pkg.Files)
		c := &flowAtomicChecker{pass: pass, info: pkg.Info, dirs: dirs, fields: mine}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.local = localConstructs(pkg.Info, fd.Body)
				ast.Inspect(fd.Body, c.inspect)
			}
		}
	}
	return nil
}

// collectAtomicFields walks the whole module once and returns the set
// of struct-field objects whose address (or an element's address)
// reaches a sync/atomic call.
func collectAtomicFields(prog *analysis.Program) map[types.Object]bool {
	fields := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					if fld := fieldObject(pkg.Info, un.X); fld != nil {
						fields[fld] = true
					}
				}
				return true
			})
		}
	}
	return fields
}

// isAtomicCall reports whether the call targets the sync/atomic
// package (functions or the atomic.Int64-style method sets).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// fieldObject resolves the struct field an lvalue expression denotes:
// x.f, x.f[i], (*p).f[i] all resolve to f. Non-field lvalues return
// nil.
func fieldObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.IndexExpr:
		return fieldObject(info, e.X)
	case *ast.StarExpr:
		return fieldObject(info, e.X)
	}
	return nil
}

// localConstructs returns the objects of variables the function body
// itself initializes from a composite literal, &composite literal, or
// new(T) call: accesses through them happen before the value can be
// shared, so the atomic discipline does not yet apply.
func localConstructs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if !freshValue(info, rhs) {
			return
		}
		if o := info.Defs[id]; o != nil {
			objs[o] = true
		} else if o := info.Uses[id]; o != nil {
			objs[o] = true
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
	return objs
}

// freshValue reports whether an expression denotes storage no other
// goroutine can hold a reference to yet.
func freshValue(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		return isBuiltinCall(info, e, "new")
	}
	return false
}

// flowAtomicChecker is the per-package traversal of memmodelatomic:
// the access rules plus the construction-phase exemption.
type flowAtomicChecker struct {
	pass   *analysis.Pass
	info   *types.Info
	dirs   *directives
	fields map[types.Object]bool
	local  map[types.Object]bool
}

func (c *flowAtomicChecker) inspect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Ranging over the field reads only the slice header; element
		// accesses in the body stay checked.
		if fld := fieldObject(c.info, n.X); fld != nil && c.fields[fld] {
			if n.Key != nil {
				ast.Inspect(n.Key, c.inspect)
			}
			if n.Value != nil {
				ast.Inspect(n.Value, c.inspect)
			}
			ast.Inspect(n.Body, c.inspect)
			return false
		}
	case *ast.CallExpr:
		if isBuiltinCall(c.info, n, "len") || isBuiltinCall(c.info, n, "cap") {
			if len(n.Args) == 1 {
				if _, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
					return false
				}
			}
		}
		if isAtomicCall(c.info, n) {
			for _, arg := range n.Args {
				if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
					continue
				}
				ast.Inspect(arg, c.inspect)
			}
			// The receiver chain of the method form (x.f.Load) is the
			// discipline itself; don't descend into n.Fun.
			return false
		}
	case *ast.SelectorExpr:
		sel, ok := c.info.Selections[n]
		if !ok || sel.Kind() != types.FieldVal || !c.fields[sel.Obj()] {
			break
		}
		if c.local[rootObject(c.info, n.X)] {
			return false // construction phase: the holder is function-local
		}
		if c.dirs.at(n.Pos(), "atomic-ok") {
			return false
		}
		c.pass.Reportf(n.Pos(), "non-atomic access to %s, a field touched via sync/atomic elsewhere in the module, outside its construction phase", sel.Obj().Name())
		return false
	}
	return true
}

// checkSyncCopies flags, in the target package's own files, by-value
// parameters and receivers whose type carries synchronization state,
// and assignments that copy such a struct out of a dereference (x := *p
// and *dst = *src are both forks of live synchronization state).
func checkSyncCopies(pass *analysis.Pass, atomicFields map[types.Object]bool) {
	dirs := newDirectives(pass.Fset, pass.Files)
	report := func(n ast.Node, format string, args ...any) {
		if !dirs.at(n.Pos(), "atomic-ok") {
			pass.Reportf(n.Pos(), format, args...)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				for _, fl := range []*ast.FieldList{n.Recv, n.Type.Params} {
					if fl == nil {
						continue
					}
					for _, fld := range fl.List {
						t := pass.TypesInfo.Types[fld.Type].Type
						if t == nil {
							continue
						}
						if name := syncBearing(t, atomicFields); name != "" {
							report(fld.Type, "%s passes %s by value, copying its %s", n.Name.Name, t.String(), name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					star, ok := ast.Unparen(rhs).(*ast.StarExpr)
					if !ok {
						continue
					}
					t := pass.TypesInfo.Types[star].Type
					if t == nil {
						continue
					}
					if name := syncBearing(t, atomicFields); name != "" {
						report(rhs, "copies %s by value, forking its %s", t.String(), name)
					}
				}
			}
			return true
		})
	}
}

// syncBearing reports why a type must not be copied: it is (or
// directly embeds) a sync lock type, or it is a struct with a field in
// the module's atomic-field set. Returns "" for freely copyable types.
func syncBearing(t types.Type, atomicFields map[types.Object]bool) string {
	if isSyncLockType(t) {
		return "lock state"
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if atomicFields[f] {
			return "atomically-updated field " + f.Name()
		}
		if isSyncLockType(f.Type()) {
			return "sync." + f.Type().(*types.Named).Obj().Name() + " field " + f.Name()
		}
	}
	return ""
}

// isSyncLockType reports whether t is one of the sync types that must
// never be copied after first use.
func isSyncLockType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
		return true
	}
	return false
}
