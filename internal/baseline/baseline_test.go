package baseline

import (
	"go/build"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
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
