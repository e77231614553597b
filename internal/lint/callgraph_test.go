package lint

import (
	"go/types"
	"testing"

	"superfe/internal/lint/loader"
)

// TestCallGraphEdgeCases pins staticCallee's resolution behavior on
// the constructs role reachability and hot-path traversal rely on.
// memmodel treats dynamic edges as traversal stops, so a change in
// what resolves statically silently changes what gets verified — this
// test makes such a change loud.
func TestCallGraphEdgeCases(t *testing.T) {
	prog, err := loader.LoadDir("testdata/src/callgraph", "callgraph")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	g := buildCallGraph(prog)

	fns := map[string]*types.Func{}
	for fn := range g.decl {
		fns[fn.Name()] = fn
	}
	for _, name := range []string{"M", "direct", "methodValue", "deferred", "goCall", "embedded", "viaIface", "methodExpr", "closer"} {
		if fns[name] == nil {
			t.Fatalf("fixture function %s not in graph decls", name)
		}
	}

	callees := func(name string) []*types.Func { return g.callees[fns[name]] }

	// A direct method call on a concrete receiver resolves.
	if cs := callees("direct"); len(cs) != 1 || cs[0] != fns["M"] {
		t.Errorf("direct: callees = %v, want exactly T.M", cs)
	}

	// A method value detaches the call from the selector: the later
	// f() is a dynamic call with no edge.
	if cs := callees("methodValue"); len(cs) != 0 {
		t.Errorf("methodValue: callees = %v, want none (method-value calls are dynamic)", cs)
	}

	// defer and go statements still contribute edges: scanBody visits
	// every CallExpr regardless of the carrying statement.
	if cs := callees("deferred"); len(cs) != 1 || cs[0] != fns["M"] {
		t.Errorf("deferred: callees = %v, want exactly T.M", cs)
	}
	if cs := callees("goCall"); len(cs) != 1 || cs[0] != fns["M"] {
		t.Errorf("goCall: callees = %v, want exactly T.M", cs)
	}

	// A call through an interface-typed value is dynamic dispatch.
	if cs := callees("viaIface"); len(cs) != 0 {
		t.Errorf("viaIface: callees = %v, want none (interface dispatch)", cs)
	}

	// A call through a struct-embedded interface resolves to the
	// *abstract* interface method: the receiver type is the concrete
	// struct, so the interface-receiver stop does not trigger, and the
	// edge lands on a function with no body in the module. Traversals
	// that follow it find no decl and stop — same effect as a dynamic
	// edge, but via a different mechanism. Pinned so a future fix
	// (resolving to nil instead) is a deliberate decision.
	if cs := callees("embedded"); len(cs) != 1 {
		t.Fatalf("embedded: callees = %v, want exactly one abstract edge", cs)
	} else {
		callee := cs[0]
		if callee == fns["M"] {
			t.Errorf("embedded: resolved to the concrete T.M; promotion through an embedded interface cannot know the dynamic type")
		}
		if g.FuncDecl(callee) != nil {
			t.Errorf("embedded: abstract callee unexpectedly has a module decl")
		}
		recv := callee.Type().(*types.Signature).Recv()
		if recv == nil {
			t.Errorf("embedded: callee has no receiver, want the interface method")
		} else if _, ok := recv.Type().Underlying().(*types.Interface); !ok {
			t.Errorf("embedded: callee receiver is %v, want an interface", recv.Type())
		}
	}

	// A method expression on a concrete type resolves statically.
	if cs := callees("methodExpr"); len(cs) != 1 || cs[0] != fns["M"] {
		t.Errorf("methodExpr: callees = %v, want exactly T.M", cs)
	}

	// Reachability follows the resolved edges only.
	reach := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if !reach[fn] {
			reach[fn] = true
			for _, c := range g.callees[fn] {
				visit(c)
			}
		}
	}
	visit(fns["direct"])
	if !reach[fns["M"]] {
		t.Errorf("reachable from direct is missing T.M")
	}
	if len(reach) != 2 {
		t.Errorf("reachable from direct = %d funcs, want 2 (direct, M)", len(reach))
	}

	// close() on a parameter records a close site for that object.
	if len(g.closeSites) != 1 {
		t.Fatalf("closeSites = %v, want exactly the closer parameter", g.closeSites)
	}
	for obj := range g.closeSites {
		if obj.Name() != "ch" {
			t.Errorf("close site records %s, want ch", obj.Name())
		}
		if !g.ChannelClosed(obj) {
			t.Errorf("ChannelClosed(ch) = false, want true")
		}
	}
}
