package apps

import (
	"strings"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/policy"
)

func TestCatalogDimensionsMatchTable3(t *testing.T) {
	for _, e := range Catalog() {
		p := e.Build()
		if p.FeatureDim() != e.PaperDim {
			t.Errorf("%s: dim %d, paper reports %d", e.Name, p.FeatureDim(), e.PaperDim)
		}
	}
}

func TestCatalogPoliciesCompile(t *testing.T) {
	for _, e := range Catalog() {
		p := e.Build()
		plan, err := policy.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(plan.Switch.Chain) == 0 {
			t.Errorf("%s: empty granularity chain", e.Name)
		}
		if plan.NIC.FeatureDim != e.PaperDim {
			t.Errorf("%s: NIC dim %d", e.Name, plan.NIC.FeatureDim)
		}
	}
}

func TestWFPFamilySharesShape(t *testing.T) {
	for _, build := range []func() *policy.Policy{AWF, DF, TF} {
		p := build()
		if p.FeatureDim() != 5000 {
			t.Errorf("%s: dim %d", p.Name(), p.FeatureDim())
		}
		if g := p.Granularities(); g[len(g)-1] != flowkey.GranSocket {
			t.Errorf("%s: granularity %s, want socket", p.Name(), g[len(g)-1])
		}
		if !strings.Contains(p.Source(), "f_direction") {
			t.Errorf("%s: missing direction mapping", p.Name())
		}
	}
}

func TestKitsuneGranularityChain(t *testing.T) {
	p := Kitsune()
	chain := p.Granularities()
	if len(chain) != 4 {
		t.Fatalf("chain length %d, want 4 (host, channel, socket, flow)", len(chain))
	}
	if chain[0] != flowkey.GranHost {
		t.Errorf("CG = %s, want host", chain[0])
	}
	if !p.PerPacket() {
		t.Error("Kitsune emits per packet")
	}
}

func TestNBaIoTUsesDampedWindows(t *testing.T) {
	p := NBaIoT()
	src := p.Source()
	for _, want := range []string{"fd_weight", "fd_mean", "fd_std", "fd_mag", "fd_radius", "fd_cov", "fd_pcc"} {
		if !strings.Contains(src, want) {
			t.Errorf("N-BaIoT missing %s", want)
		}
	}
	if p.PerPacket() {
		t.Error("N-BaIoT is per-group")
	}
}

func TestNPODUsesFigure4Shape(t *testing.T) {
	p := NPOD()
	src := p.Source()
	if !strings.Contains(src, "ft_hist") || !strings.Contains(src, "f_ipt") {
		t.Errorf("NPOD policy missing histogram features:\n%s", src)
	}
	if len(p.Granularities()) != 1 || p.Granularities()[0] != flowkey.GranFlow {
		t.Error("NPOD groups by flow only")
	}
}

func TestMPTDFeatureBattery(t *testing.T) {
	p := MPTD()
	src := p.Source()
	for _, want := range []string{"f_skew", "f_kur", "ft_percent", "f_burst", "f_speed"} {
		if !strings.Contains(src, want) {
			t.Errorf("MPTD missing %s", want)
		}
	}
}

func TestCUMULShape(t *testing.T) {
	p := CUMUL()
	if p.FeatureDim() != 104 {
		t.Errorf("CUMUL dim = %d", p.FeatureDim())
	}
	if !strings.Contains(p.Source(), "ft_sample") {
		t.Error("CUMUL must sample its cumulative trace")
	}
}

func TestPoliciesAreFreshInstances(t *testing.T) {
	// Each Build call must return an independent policy (no shared
	// mutable state between deployments).
	a, b := Kitsune(), Kitsune()
	if a == b {
		t.Error("Build returned a shared instance")
	}
}
