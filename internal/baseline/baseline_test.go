package baseline

import (
	"go/build"
	"go/types"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/lint/loader"
	"superfe/internal/trace"
)

func TestSoftwareExtractorEndToEnd(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 150
	tr := trace.Generate(cfg, 55)
	var vecs []feature.Vector
	ext, err := New(apps.NPOD(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		ext.Process(&tr.Packets[i])
	}
	ext.Flush()
	if len(vecs) == 0 {
		t.Fatal("no vectors")
	}
	// One vector per directional flow.
	flows := map[flowkey.Key]bool{}
	for i := range tr.Packets {
		k, _ := flowkey.KeyFor(flowkey.GranFlow, tr.Packets[i].Tuple)
		flows[k] = true
	}
	if len(vecs) != len(flows) {
		t.Errorf("%d vectors for %d flows", len(vecs), len(flows))
	}
	for _, v := range vecs {
		if len(v.Values) != 37 {
			t.Fatalf("dim = %d", len(v.Values))
		}
	}
}

func TestSoftwareExtractorMultiGranularity(t *testing.T) {
	cfg := trace.DefaultIntrusionConfig(trace.AttackMirai)
	cfg.BenignFlows = 30
	cfg.AttackPkts = 200
	tr := trace.GenerateIntrusion(cfg, 3)
	var n int
	ext, err := New(apps.Kitsune(), func(v feature.Vector) {
		n++
		if len(v.Values) != 115 {
			t.Fatalf("dim = %d", len(v.Values))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		ext.Process(&tr.Packets[i])
	}
	ext.Flush()
	if n == 0 {
		t.Fatal("no per-packet vectors")
	}
}

func TestServerModelThroughput(t *testing.T) {
	// The paper's Xeon Gold 6230R back-end server running the original
	// software extractors.
	m := ServerModel{Cores: 26, CyclesPerPkt: 12000, FreqHz: 2.1e9}
	g := m.ThroughputGbps(739)
	if g <= 0 || g > 200 {
		t.Errorf("software throughput %g Gbps implausible", g)
	}
	// Throughput scales with cores.
	m2 := m
	m2.Cores *= 2
	if m2.ThroughputGbps(739) <= g {
		t.Error("more cores should raise throughput")
	}
}

func TestFilterHonored(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 50
	cfg.UDPShare = 0.5
	tr := trace.Generate(cfg, 9)
	ext, err := New(apps.TF(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	passed := 0
	for i := range tr.Packets {
		if ext.Process(&tr.Packets[i]) {
			passed++
		}
	}
	if passed == 0 || passed == len(tr.Packets) {
		t.Errorf("TCP filter ineffective: %d of %d", passed, len(tr.Packets))
	}
}

// TestSharesNoEngineCode walks the package's import closure: the oracle
// the engine is held to must not import the engine.
func TestSharesNoEngineCode(t *testing.T) {
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		switch path {
		case "superfe/internal/nicsim", "superfe/internal/switchsim", "superfe/internal/core", "superfe/internal/serve":
			t.Errorf("baseline's import closure holds %s", path)
		}
		pkg, err := build.Import(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if !pkg.Goroot {
				walk(imp)
			}
		}
	}
	walk("superfe/internal/baseline")
}

// sharedContract is all of streaming that baseline's non-test code may
// name: the definitions of a reducing function, its parameters and its
// views, and the arithmetic both legs of a differential run (streaming's
// shared.go). DampedWelford, Damped2D and NewDamped2D are the one
// exception: the damped windows the oracle shares with the naive
// ablation, never with the kernels.
var sharedContract = map[string]bool{
	"Func": true, "Params": true, "View": true, "ViewOf": true,
	"Family": true, "FamilyOf": true, "FeatureWidth": true,
	"DefaultMaxArray": true, "DefaultHLLBits": true,
	"DecayFactor": true, "Hash32": true, "HLLEstimate": true,
	"DampedWelford": true, "Damped2D": true, "NewDamped2D": true,
}

// TestNamesOnlyTheSharedContract: the oracle's non-test code names no
// streaming symbol outside sharedContract — no kernel, naive log,
// validator or footprint — so what the oracle shares with the NIC is
// that list and nothing else. A Func constant is a definition of Func;
// a method or field counts as its type.
func TestNamesOnlyTheSharedContract(t *testing.T) {
	prog, err := loader.Load("../..", "./internal/baseline")
	if err != nil {
		t.Fatalf("load baseline: %v", err)
	}
	streaming := prog.ModulePath + "/internal/streaming"
	shared := func(obj types.Object) bool {
		scope := obj.Pkg().Scope()
		if obj.Parent() == scope {
			_, isConst := obj.(*types.Const)
			return sharedContract[obj.Name()] || isConst && obj.Type() == scope.Lookup("Func").Type()
		}
		if f, ok := obj.(*types.Func); ok { // a method: its receiver's type
			recv := f.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			return sharedContract[recv.(*types.Named).Obj().Name()]
		}
		for name := range sharedContract { // a field: its struct's type
			if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if st.Field(i) == obj {
						return true
					}
				}
			}
		}
		return false
	}
	checked := false
	for _, pkg := range prog.Packages {
		if pkg.Path != prog.ModulePath+"/internal/baseline" {
			continue
		}
		checked = true
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == streaming && !shared(obj) {
				t.Errorf("%s: baseline names streaming.%s, outside the shared contract", prog.Fset.Position(id.Pos()), obj.Name())
			}
		}
	}
	if !checked {
		t.Fatal("baseline was not loaded")
	}
}
