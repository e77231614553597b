package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"superfe/internal/lint/loader"
)

// testOnlyExportsAllowed is the whole allowlist of exported
// package-level names and methods under internal/ that no production
// code reaches. Each states why it stays exported anyway; the test
// caps the list at its 8 entries and rejects entries that have become
// live or no longer exist.
var testOnlyExportsAllowed = map[string]string{
	// Test infrastructure: exists to be called from tests.
	"lint/analysistest.Run": "the analyzers' fixture harness (and through it loader.LoadDir); its only possible callers are the analyzer tests",
	"packet.Validate":       "oracle the trace generators' tests hold every synthesised packet to",

	// Reference implementations a test compares the production path against.
	"nicsim.PlaceAllEMEM": "ablation baseline: cost_test prices the ILP placement against everything-in-EMEM",
	"streaming.IntMean":   "executable model of the §6.2 division-free mean that nicsim/cost.go only prices; its tests measure the residual-division share the cost model assumes",

	// Paper mechanisms demonstrated only by their tests.
	"gpv.GPVSize":                    "record size of the single-granularity GPV baseline; TestGPVSize holds Fig. 13's one-MGPV-beats-three-GPVs arithmetic at the wire level",
	"mlsim.NewKNN":                   "k-NN classifier standing in for CUMUL's detector; the harness reproduces only the Kitsune detector",
	"policy.Or":                      "policy-language surface: the filter grammar's disjunction, compiled and proved like And/Not, used by no bundled policy",
	"streaming.NewVariableHistogram": "§6.1 variable-bin-width histogram refinement; no catalog policy asks for geometric bins",
}

// TestNoTestOnlyExports holds the weight-audit rule "an exported
// mechanism needs a non-test caller": every exported package-level
// func or type, and every exported method, under internal/ must be
// referenced from non-test code outside its own declaration (a type's
// declaration includes its unexported methods; an exported method is
// a declaration of its own), and a reference made from inside another
// exported declaration only counts if that one is live too — so a
// type kept alive only by its own constructor falls with the
// constructor. A method is also live when it implements an interface
// method live code calls, or a standard-library interface (String,
// Error, MarshalJSON, …); an allowlisted type's entry covers its
// methods. The loader parses no _test.go file, so "referenced"
// already means "referenced from production code"; cmd/, bench/ and
// examples/ are callers like any other. The same holds one level up:
// every package under internal/ is imported by non-test code outside
// itself, or owns an allowlisted name.
func TestNoTestOnlyExports(t *testing.T) {
	prog, err := loader.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	internal := prog.ModulePath + "/internal/"

	// Every candidate and the top-level declarations that belong to it:
	// its own, and for a type its unexported methods'. Top-level
	// declarations do not nest, so owner is a binary search.
	type span struct {
		lo, hi token.Pos
		obj    types.Object
	}
	var spans []span
	candidate := map[types.Object]bool{}
	methodsOf := map[types.Object][]types.Object{} // receiver type name → its exported methods
	var named []*types.TypeName                    // every top-level type of the module
	for _, pkg := range prog.Packages {
		for _, n := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		own := func(id *ast.Ident, n ast.Node) {
			candidate[pkg.Info.Defs[id]] = true
			spans = append(spans, span{n.Pos(), n.End(), pkg.Info.Defs[id]})
		}
		var methods []*ast.FuncDecl
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						methods = append(methods, d)
					} else if d.Name.IsExported() {
						own(d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if ts.Name.IsExported() {
							own(ts.Name, ts)
						}
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									if id.IsExported() {
										candidate[pkg.Info.Defs[id]] = true
										methodsOf[pkg.Info.Defs[ts.Name]] = append(methodsOf[pkg.Info.Defs[ts.Name]], pkg.Info.Defs[id])
									}
								}
							}
						}
					}
				}
			}
		}
		for _, d := range methods {
			recv := pkg.Info.Uses[receiverIdent(d.Recv.List[0].Type)]
			switch {
			case d.Name.IsExported():
				own(d.Name, d)
				methodsOf[recv] = append(methodsOf[recv], pkg.Info.Defs[d.Name])
			case candidate[recv]:
				spans = append(spans, span{d.Pos(), d.End(), recv})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	owner := func(pos token.Pos) types.Object {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > pos })
		if i < len(spans) && spans[i].lo <= pos {
			return spans[i].obj
		}
		return nil
	}

	// refs[obj] = the candidates (nil for anything else: unexported
	// code, other trees) that mention it. Interface methods from any
	// tree are tracked too: calling one keeps its implementations.
	refs := map[types.Object][]types.Object{}
	called := map[*types.Interface]map[types.Object]bool{} // interface → its referenced methods
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			recv := recvType(obj)
			iface := recv != nil && types.IsInterface(recv)
			if !candidate[obj] && !iface {
				continue
			}
			if iface {
				it := recv.Underlying().(*types.Interface)
				if called[it] == nil {
					called[it] = map[types.Object]bool{}
				}
				called[it][obj] = true
			}
			if from := owner(id.Pos()); from != obj {
				refs[obj] = append(refs[obj], from)
			}
		}
	}
	// Every exported interface of the standard library the module
	// reaches, and error.
	std := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	seenPkg := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		if !strings.HasPrefix(p.Path(), prog.ModulePath+"/") {
			for _, n := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					std[tn.Type().Underlying().(*types.Interface)] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, pkg := range prog.Packages {
		walk(pkg.Types)
	}
	// implementations calls each with every interface method of it and
	// the method of a module type implementing it that a call resolves
	// to (possibly promoted from an embedded field).
	implementations := func(it *types.Interface, each func(im, m types.Object)) {
		for _, tn := range named {
			T := tn.Type()
			if it.NumMethods() == 0 || T.(*types.Named).TypeParams().Len() > 0 ||
				!types.Implements(T, it) && !types.Implements(types.NewPointer(T), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				m, _, _ := types.LookupFieldOrMethod(T, true, im.Pkg(), im.Name())
				each(im, m.(*types.Func).Origin())
			}
		}
	}
	// A method implementing a called interface method is referenced by
	// it; one implementing a standard-library interface is live.
	for it, methods := range called {
		implementations(it, func(im, m types.Object) {
			if candidate[m] && methods[im] {
				refs[m] = append(refs[m], im)
			}
		})
	}
	for it := range std {
		implementations(it, func(_, m types.Object) {
			if candidate[m] {
				refs[m] = append(refs[m], nil)
			}
		})
	}

	name := func(obj types.Object) string {
		n := strings.TrimPrefix(obj.Pkg().Path(), internal) + "."
		if recv := recvType(obj); recv != nil {
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			n += recv.(*types.Named).Obj().Name() + "."
		}
		return n + obj.Name()
	}
	// Liveness spreads from production code that is no candidate (nil)
	// through references to a fixed point.
	live := map[types.Object]bool{nil: true}
	spread := func() {
		for grew := true; grew; {
			grew = false
			for obj, from := range refs {
				for _, f := range from {
					if !live[obj] && live[f] {
						live[obj], grew = true, true
					}
				}
			}
		}
	}
	spread()
	wasLive := map[types.Object]bool{}
	for obj := range live {
		wasLive[obj] = true
	}
	allowed := map[string]bool{}
	for obj := range candidate {
		n := name(obj)
		allowed[n] = true
		if _, ok := testOnlyExportsAllowed[n]; !ok {
			continue
		}
		if live[obj] {
			t.Errorf("%s is allowlisted but production code reaches it: drop the entry", n)
		}
		live[obj] = true
	}
	// What an allowlisted name uses is kept with it, and a type kept
	// that way keeps its methods.
	for before := (map[types.Object]bool{}); len(before) < len(live); {
		for obj := range live {
			before[obj] = true
		}
		spread()
		for obj := range live {
			for _, m := range methodsOf[obj] {
				if !wasLive[obj] {
					live[m] = true
				}
			}
		}
	}

	var dead []string
	for obj := range candidate {
		if !live[obj] {
			dead = append(dead, name(obj)+" ("+prog.Fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but reached only from tests: %s — delete it, unexport it, or allowlist it with a reason", d)
	}
	if len(testOnlyExportsAllowed) > 8 {
		t.Errorf("allowlist has %d entries, cap is 8", len(testOnlyExportsAllowed))
	}

	imported := map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for _, pkg := range prog.Packages {
		rel := strings.TrimPrefix(pkg.Path, internal)
		if rel == pkg.Path || imported[pkg.Path] {
			continue
		}
		owns := false
		for n := range testOnlyExportsAllowed {
			owns = owns || strings.HasPrefix(n, rel+".")
		}
		if !owns {
			t.Errorf("package internal/%s is imported by no production code: delete it, or allowlist what its tests keep", rel)
		}
	}
	for n, why := range testOnlyExportsAllowed {
		if !allowed[n] {
			t.Errorf("allowlist entry %s names nothing exported under internal/", n)
		}
		if why == "" {
			t.Errorf("allowlist entry %s gives no reason", n)
		}
	}
}

// recvType is a method's receiver type, nil for anything else.
func recvType(obj types.Object) types.Type {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			return recv.Type()
		}
	}
	return nil
}

// receiverIdent unwraps *T and T[P] down to the receiver's type name.
func receiverIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
