package baseline

import (
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
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
	for _, v := range vecs {
		if len(v.Values) != 37 {
			t.Fatalf("dim = %d", len(v.Values))
		}
	}
	// The mirror link carries every raw byte.
	if ext.MirroredBytes() != tr.Stats().Bytes {
		t.Errorf("mirrored %d bytes, trace has %d", ext.MirroredBytes(), tr.Stats().Bytes)
	}
	if ext.NICStats().Cells == 0 {
		t.Error("no cells processed")
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
