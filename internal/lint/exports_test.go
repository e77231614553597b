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
// package-level names under internal/ that no production code reaches.
// Each states why it stays exported anyway; the test caps the list at
// 15 entries and rejects entries that have become live or no longer
// exist.
var testOnlyExportsAllowed = map[string]string{
	// Test infrastructure: exists to be called from tests.
	"lint/analysistest.Run": "the analyzers' fixture harness (and through it loader.LoadDir); its only possible callers are the analyzer tests",
	"packet.Validate":       "oracle the trace generators' tests hold every synthesised packet to",

	// Reference implementations a test compares the production path against.
	"nicsim.PlaceAllEMEM": "ablation baseline: cost_test prices the ILP placement against everything-in-EMEM",
	"streaming.IntMean":   "executable model of the §6.2 division-free mean that nicsim/cost.go only prices; its tests measure the residual-division share the cost model assumes",

	// Paper mechanisms demonstrated only by their tests.
	"grandep.MinChainCover":          "§9 future work (minimum chain cover of a granularity poset); no policy needs a non-chain yet",
	"grandep.Builtin":                "MinChainCover's bridge from the four flowkey granularities",
	"gpv.GPVSize":                    "record size of the single-granularity GPV baseline; TestGPVSize holds Fig. 13's one-MGPV-beats-three-GPVs arithmetic at the wire level",
	"mlsim.NewKNN":                   "k-NN classifier standing in for CUMUL's detector; the harness reproduces only the Kitsune detector",
	"mlsim.RelativeError":            "Fig. 10's metric as the paper defines it; harness.Fig10 inlines a variant that rescales covariance and correlation",
	"policy.Or":                      "policy-language surface: the filter grammar's disjunction, compiled and proved like And/Not, used by no bundled policy",
	"streaming.NewVariableHistogram": "§6.1 variable-bin-width histogram refinement; no catalog policy asks for geometric bins",
}

// TestNoTestOnlyExports holds the weight-audit rule "an exported
// mechanism needs a non-test caller": every exported package-level
// func or type under internal/ must be referenced from non-test code
// outside its own declaration (a type's declaration includes its
// methods), and a reference made from inside another exported
// declaration only counts if that one is live too — so a type kept
// alive only by its own constructor falls with the constructor. The
// loader parses no _test.go file, so "referenced" already means
// "referenced from production code"; cmd/, bench/ and examples/ are
// callers like any other.
func TestNoTestOnlyExports(t *testing.T) {
	prog, err := loader.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	internal := prog.ModulePath + "/internal/"

	// Every candidate and the top-level declarations that belong to it:
	// its own, and for a type its methods'. Top-level declarations do
	// not nest, so owner is a binary search.
	type span struct {
		lo, hi token.Pos
		obj    types.Object
	}
	var spans []span
	candidate := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		own := func(id *ast.Ident, n ast.Node) {
			if id.IsExported() {
				candidate[pkg.Info.Defs[id]] = true
				spans = append(spans, span{n.Pos(), n.End(), pkg.Info.Defs[id]})
			}
		}
		var methods []*ast.FuncDecl
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						own(d.Name, d)
					} else {
						methods = append(methods, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							own(ts.Name, ts)
						}
					}
				}
			}
		}
		for _, d := range methods {
			if id := receiverIdent(d.Recv.List[0].Type); id != nil && candidate[pkg.Info.Uses[id]] {
				spans = append(spans, span{d.Pos(), d.End(), pkg.Info.Uses[id]})
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
	// code, methods of unexported types, other trees) that mention it.
	refs := map[types.Object][]types.Object{}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			if !candidate[obj] {
				continue
			}
			if from := owner(id.Pos()); from != obj {
				refs[obj] = append(refs[obj], from)
			}
		}
	}
	name := func(obj types.Object) string {
		return strings.TrimPrefix(obj.Pkg().Path(), internal) + "." + obj.Name()
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
	named := map[string]bool{}
	for obj := range candidate {
		n := name(obj)
		named[n] = true
		if _, ok := testOnlyExportsAllowed[n]; !ok {
			continue
		}
		if live[obj] {
			t.Errorf("%s is allowlisted but production code reaches it: drop the entry", n)
		}
		live[obj] = true
	}
	// What an allowlisted name uses is kept with it.
	spread()

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
	if len(testOnlyExportsAllowed) > 15 {
		t.Errorf("allowlist has %d entries, cap is 15", len(testOnlyExportsAllowed))
	}
	for n, why := range testOnlyExportsAllowed {
		if !named[n] {
			t.Errorf("allowlist entry %s names nothing exported under internal/", n)
		}
		if why == "" {
			t.Errorf("allowlist entry %s gives no reason", n)
		}
	}
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
