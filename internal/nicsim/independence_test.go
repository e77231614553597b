package nicsim

import (
	"testing"

	"superfe/internal/lint/loader"
)

// TestNICHoldsNoReducer: the NIC keeps every state as a
// streaming.Kernel over its group records, and the oracle
// (baseline.Interpreter, the family tests) runs the streaming.Reducer
// types, so a differential between the two compares independent code.
// nicsim's non-test code must therefore name neither the Reducer
// interface nor the constructors that build one.
func TestNICHoldsNoReducer(t *testing.T) {
	prog, err := loader.Load("../..", "./internal/nicsim")
	if err != nil {
		t.Fatalf("load nicsim: %v", err)
	}
	streaming := prog.ModulePath + "/internal/streaming"
	banned := map[string]bool{"Reducer": true, "New": true, "NewNaive": true}
	checked := false
	for _, pkg := range prog.Packages {
		if pkg.Path != prog.ModulePath+"/internal/nicsim" {
			continue
		}
		checked = true
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == streaming && obj.Parent() == obj.Pkg().Scope() && banned[obj.Name()] {
				t.Errorf("%s: nicsim names streaming.%s", prog.Fset.Position(id.Pos()), obj.Name())
			}
		}
	}
	if !checked {
		t.Fatal("nicsim was not loaded")
	}
}
