package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"superfe/internal/lint/analysis"
)

// MemModelRole enforces the SPSC ownership partition the ring protocol
// depends on: methods annotated //superfe:producer own one set of
// sequence fields (tail and the producer's cache of head) and methods
// annotated //superfe:consumer own the complementary set. A sequence
// field — an integer atomic, or a plain integer side cache of one —
// written from both sides is no longer single-producer/single-consumer
// and the whole wait-free argument collapses. The analyzer follows the
// static call graph, so a helper reached only from producer code is
// producer code; a function reachable from neither side that writes an
// owned field is flagged as a rogue writer.
//
// atomic.Bool fields are deliberately outside the partition: the
// park/wake flags are a two-sided rendezvous by design.
//
// It also holds the //superfe:padded contract that keeps the two
// sides' fields on separate cache lines: the annotated struct actually
// contains at least one full cache-line pad (a blank [64]byte-or-larger
// field), every pad it declares is at least a line wide, and no module
// code embeds or copies the struct in a way that discards the
// alignment the pads buy — by-value struct fields, array/slice/map/chan
// elements, by-value parameters, receivers, results, and dereference
// copies are all flagged. Padded structs are held and passed by
// pointer, full stop.
var MemModelRole = &analysis.Analyzer{
	Name: "memmodelrole",
	Doc:  "require //superfe:producer and //superfe:consumer methods to write disjoint sequence fields (SPSC ownership partition), and //superfe:padded structs to contain real cache-line pads and be used only by pointer",
	Run: func(pass *analysis.Pass) error {
		checkRoles(pass)
		checkPadded(pass)
		return nil
	},
}

// roleWrite is one write to a sequence field inside one function.
type roleWrite struct {
	fld types.Object
	pos token.Pos
}

func checkRoles(pass *analysis.Pass) {
	decls := pkgFuncDecls(pass)
	roles := map[*types.Func]string{}
	roleStructs := map[*types.TypeName]bool{}
	for _, d := range decls {
		p := funcDirective(d.fd, "producer")
		c := funcDirective(d.fd, "consumer")
		if p && c {
			pass.Reportf(d.fd.Pos(), "%s is annotated both //superfe:producer and //superfe:consumer; an SPSC side has exactly one role", d.fn.Name())
			continue
		}
		if !p && !c {
			continue
		}
		role := "producer"
		if c {
			role = "consumer"
		}
		roles[d.fn] = role
		if tn := receiverTypeName(d.fn); tn != nil {
			roleStructs[tn] = true
		}
	}
	if len(roles) == 0 {
		return
	}

	// Direct sequence-field writes per function: atomic read-modify
	// ops on integer atomics, plus plain writes to integer fields of a
	// role-bearing struct (the head/tail side caches).
	writes := map[*types.Func][]roleWrite{}
	for _, d := range decls {
		var ws []roleWrite
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fld, verb := atomicFieldOp(pass.TypesInfo, n); fld != nil && verb != "Load" && isSeqField(fld) {
					ws = append(ws, roleWrite{fld: fld, pos: n.Pos()})
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if fld := plainSeqTarget(pass.TypesInfo, lhs, roleStructs); fld != nil {
						ws = append(ws, roleWrite{fld: fld, pos: lhs.Pos()})
					}
				}
			case *ast.IncDecStmt:
				if fld := plainSeqTarget(pass.TypesInfo, n.X, roleStructs); fld != nil {
					ws = append(ws, roleWrite{fld: fld, pos: n.X.Pos()})
				}
			}
			return true
		})
		if len(ws) > 0 {
			writes[d.fn] = ws
		}
	}

	g := graphFor(pass.Prog)
	reach := func(role string) map[*types.Func]bool {
		seen := map[*types.Func]bool{}
		var visit func(fn *types.Func)
		visit = func(fn *types.Func) {
			if fn == nil || seen[fn] {
				return
			}
			if r, annotated := roles[fn]; annotated && r != role {
				return // the partition boundary: never cross into the peer
			}
			seen[fn] = true
			for _, c := range g.callees[fn] {
				visit(c)
			}
		}
		for _, d := range decls {
			if roles[d.fn] == role {
				visit(d.fn)
			}
		}
		return seen
	}
	prodReach, consReach := reach("producer"), reach("consumer")

	// Ownership: which side writes each field.
	written := map[types.Object]map[string]bool{}
	for _, d := range decls {
		for _, w := range writes[d.fn] {
			side := ""
			if prodReach[d.fn] {
				side = "producer"
			} else if consReach[d.fn] {
				side = "consumer"
			}
			if side == "" {
				continue
			}
			if written[w.fld] == nil {
				written[w.fld] = map[string]bool{}
			}
			written[w.fld][side] = true
		}
	}

	var conflicted []types.Object
	for fld, sides := range written {
		if sides["producer"] && sides["consumer"] {
			conflicted = append(conflicted, fld)
		}
	}
	sort.Slice(conflicted, func(i, j int) bool { return conflicted[i].Pos() < conflicted[j].Pos() })
	for _, fld := range conflicted {
		pass.Reportf(fld.Pos(), "sequence field %s is written by both //superfe:producer and //superfe:consumer code; SPSC ownership requires a single writing side", fld.Name())
	}

	// Rogue writers: functions on neither side writing an owned field.
	for _, d := range decls {
		if prodReach[d.fn] || consReach[d.fn] {
			continue
		}
		for _, w := range writes[d.fn] {
			sides := written[w.fld]
			if sides == nil || (sides["producer"] && sides["consumer"]) {
				continue // unowned, or already reported as conflicted
			}
			owner := "producer"
			if sides["consumer"] {
				owner = "consumer"
			}
			pass.Reportf(w.pos, "%s writes %s-owned sequence field %s but is not reachable from any //superfe:%s function", d.fn.Name(), owner, w.fld.Name(), owner)
		}
	}
}

// checkPadded verifies the //superfe:padded contract.
func checkPadded(pass *analysis.Pass) {
	padded := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !commentGroupDirective(ts.Doc, "padded") &&
					!(len(gd.Specs) == 1 && commentGroupDirective(gd.Doc, "padded")) {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf(ts.Pos(), "%s is //superfe:padded but is not a struct type", ts.Name.Name)
					continue
				}
				padded[tn] = true
				checkPads(pass, ts, st)
			}
		}
	}
	if len(padded) == 0 {
		return
	}

	isPadded := func(t types.Type) *types.TypeName {
		if named, ok := t.(*types.Named); ok && padded[named.Obj()] {
			return named.Obj()
		}
		return nil
	}
	flag := func(info *types.Info, e ast.Expr, what string) {
		if e == nil {
			return
		}
		t := info.Types[e].Type
		if t == nil {
			return
		}
		if tn := isPadded(t); tn != nil {
			pass.Reportf(e.Pos(), "%s holds padded struct %s by value, breaking its cache-line alignment; use *%s", what, tn.Name(), tn.Name())
		}
	}
	for _, pkg := range pass.Prog.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						flag(info, fl.Type, "struct field")
					}
				case *ast.ArrayType:
					flag(info, n.Elt, "array/slice element")
				case *ast.MapType:
					flag(info, n.Key, "map key")
					flag(info, n.Value, "map value")
				case *ast.ChanType:
					flag(info, n.Value, "channel element")
				case *ast.FuncType:
					if n.Params != nil {
						for _, fl := range n.Params.List {
							flag(info, fl.Type, "parameter")
						}
					}
					if n.Results != nil {
						for _, fl := range n.Results.List {
							flag(info, fl.Type, "result")
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil {
						for _, fl := range n.Recv.List {
							flag(info, fl.Type, "receiver")
						}
					}
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						if star, ok := ast.Unparen(rhs).(*ast.StarExpr); ok {
							flag(info, star, "dereference copy")
						}
					}
				}
				return true
			})
		}
	}
}

// checkPads validates the pads inside one annotated struct: every
// blank byte-array field must span a full 64-byte cache line, and at
// least one such pad must exist.
func checkPads(pass *analysis.Pass, ts *ast.TypeSpec, st *ast.StructType) {
	hasPad := false
	for _, fl := range st.Fields.List {
		if len(fl.Names) != 1 || fl.Names[0].Name != "_" {
			continue
		}
		t := pass.TypesInfo.Types[fl.Type].Type
		arr, ok := t.(*types.Array)
		if !ok {
			continue
		}
		elem, ok := arr.Elem().Underlying().(*types.Basic)
		if !ok || elem.Kind() != types.Uint8 {
			continue
		}
		if arr.Len() >= 64 {
			hasPad = true
		} else {
			pass.Reportf(fl.Pos(), "pad in //superfe:padded struct %s is %d bytes, smaller than the 64-byte cache line", ts.Name.Name, arr.Len())
		}
	}
	if !hasPad {
		pass.Reportf(ts.Pos(), "%s is declared //superfe:padded but contains no cache-line pad (_ [64]byte between writer-owned field groups)", ts.Name.Name)
	}
}

// MemModelPublish checks the store-index-then-release pattern inside
// role-annotated functions: a plain write to a slot array must be
// followed by an atomic store of a sequence field (the release that
// publishes it), and a plain read of a slot array must be preceded by
// an atomic load of a sequence field (the acquire that ordered it).
// The check is lexical over the function body — deliberately stricter
// than a path-sensitive analysis, matching how the ring code is
// written. //superfe:publish-ok <reason> waives a site that is ordered
// by other means (e.g. a single-threaded drain after quiescence).
var MemModelPublish = &analysis.Analyzer{
	Name: "memmodelpublish",
	Doc:  "require slot-array writes in producer/consumer code to be release-published and slot reads to be acquire-ordered",
	Run:  runMemModelPublish,
}

func runMemModelPublish(pass *analysis.Pass) error {
	dirs := newDirectives(pass.Fset, pass.Files)
	for _, d := range pkgFuncDecls(pass) {
		role := ""
		switch {
		case funcDirective(d.fd, "producer"):
			role = "producer"
		case funcDirective(d.fd, "consumer"):
			role = "consumer"
		default:
			continue
		}
		checkPublication(pass, dirs, d.fd, role)
	}
	return nil
}

// slotEvent is one ordered event in a role function's body.
type slotEvent struct {
	pos  token.Pos
	kind int // slotWrite, slotRead, release, acquire
	name string
}

const (
	slotWrite = iota
	slotRead
	release
	acquire
)

func checkPublication(pass *analysis.Pass, dirs *directives, fd *ast.FuncDecl, role string) {
	info := pass.TypesInfo
	// Index expressions an assignment target writes through are
	// writes: the target itself (slots[i] = v) or the element whose
	// field it sets (slots[i].f = v, slots[i].f++).
	lhsIndex := map[*ast.IndexExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix := writtenIndex(lhs); ix != nil {
					lhsIndex[ix] = true
				}
			}
		case *ast.IncDecStmt:
			if ix := writtenIndex(n.X); ix != nil {
				lhsIndex[ix] = true
			}
		}
		return true
	})

	var events []slotEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fld, verb := atomicFieldOp(info, n); fld != nil && isSeqField(fld) {
				kind := release
				if verb == "Load" {
					kind = acquire
				}
				events = append(events, slotEvent{pos: n.Pos(), kind: kind, name: fld.Name()})
			}
		case *ast.IndexExpr:
			fld := fieldObject(info, n.X)
			if fld == nil || !isSlotField(fld) {
				return true
			}
			kind := slotRead
			if lhsIndex[n] {
				kind = slotWrite
			}
			events = append(events, slotEvent{pos: n.Pos(), kind: kind, name: fld.Name()})
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for i, ev := range events {
		switch ev.kind {
		case slotWrite:
			published := false
			for _, later := range events[i+1:] {
				if later.kind == release {
					published = true
					break
				}
			}
			if !published && !dirs.at(ev.pos, "publish-ok") {
				pass.Reportf(ev.pos, "plain write to slot field %s in //superfe:%s code is not followed by an atomic release store of a sequence field (store-index-then-release)", ev.name, role)
			}
		case slotRead:
			ordered := false
			for _, earlier := range events[:i] {
				if earlier.kind == acquire {
					ordered = true
					break
				}
			}
			if !ordered && !dirs.at(ev.pos, "publish-ok") {
				pass.Reportf(ev.pos, "plain read of slot field %s in //superfe:%s code is not preceded by an atomic acquire load of a sequence field", ev.name, role)
			}
		}
	}
}

// writtenIndex returns the index expression an assignment target
// writes through, looking past field selections, or nil.
func writtenIndex(e ast.Expr) *ast.IndexExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSlotField reports whether a field is a slot array: a slice or
// array of non-atomic payload.
func isSlotField(fld types.Object) bool {
	switch fld.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// pkgDecl pairs a declared function with its syntax.
type pkgDecl struct {
	fn *types.Func
	fd *ast.FuncDecl
}

// pkgFuncDecls lists the target package's declared functions with
// bodies, in source order.
func pkgFuncDecls(pass *analysis.Pass) []pkgDecl {
	var out []pkgDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, pkgDecl{fn: fn, fd: fd})
		}
	}
	return out
}

// receiverTypeName resolves a method's base receiver type name
// (through one pointer), or nil for plain functions.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// plainSeqTarget resolves a non-atomic write target to an integer
// field of a role-bearing struct (a sequence side cache), or nil.
func plainSeqTarget(info *types.Info, lhs ast.Expr, roleStructs map[*types.TypeName]bool) types.Object {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fld := s.Obj()
	b, ok := fld.Type().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !roleStructs[named.Obj()] {
		return nil
	}
	return fld
}
