package core

import (
	"sort"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/trace"
)

func statsPolicy() *policy.Policy {
	return policy.New("stats").
		Filter(policy.TCPExists()).
		GroupBy(flowkey.GranFlow).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		Collect().
		Reduce("size", policy.RF(streaming.FMean), policy.RF(streaming.FVar), policy.RF(streaming.FMin), policy.RF(streaming.FMax)).
		Collect().
		MustBuild()
}

func TestEndToEndSmallTrace(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 300
	tr := trace.Generate(cfg, 99)
	var vecs []feature.Vector
	fe, err := New(DefaultOptions(), statsPolicy(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	tcp := 0
	for i := range tr.Packets {
		if fe.Process(&tr.Packets[i]) {
			tcp++
		}
	}
	fe.Flush()
	if tcp == 0 {
		t.Fatal("no packets passed the filter")
	}
	// Conservation: every filtered packet becomes one NIC cell.
	nic := fe.NICStats()
	if nic.Cells != uint64(tcp) {
		t.Errorf("cells = %d, want %d", nic.Cells, tcp)
	}
	sw := fe.SwitchStats()
	if sw.CellsOut != uint64(tcp) {
		t.Errorf("switch cells = %d, want %d", sw.CellsOut, tcp)
	}
	// One vector per flow group, each with the policy's dimension.
	if len(vecs) == 0 {
		t.Fatal("no vectors emitted")
	}
	for _, v := range vecs {
		if len(v.Values) != 5 {
			t.Fatalf("vector dim = %d, want 5", len(v.Values))
		}
		// count ≥ 1, var ≥ 0, min ≤ mean ≤ max
		if v.Values[0] < 1 || v.Values[2] < 0 || v.Values[3] > v.Values[1] || v.Values[1] > v.Values[4] {
			t.Fatalf("implausible vector %v", v.Values)
		}
	}
}

func TestWireVerifyMode(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 100
	tr := trace.Generate(cfg, 5)
	run := func(verify bool) []feature.Vector {
		var vecs []feature.Vector
		opts := DefaultOptions()
		opts.VerifyWire = verify
		fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		fe.Flush()
		return vecs
	}
	direct := run(false)
	wired := run(true)
	if len(direct) != len(wired) {
		t.Fatalf("wire codec changed vector count: %d vs %d", len(direct), len(wired))
	}
	for i := range direct {
		for j := range direct[i].Values {
			if direct[i].Values[j] != wired[i].Values[j] {
				t.Fatalf("wire codec changed vector %d value %d", i, j)
			}
		}
	}
}

func TestKitsunePerPacketVectors(t *testing.T) {
	pol := apps.Kitsune()
	cfg := trace.DefaultIntrusionConfig(trace.AttackMirai)
	cfg.BenignFlows = 40
	cfg.AttackPkts = 400
	tr := trace.GenerateIntrusion(cfg, 7)
	var count int
	var dims []int
	fe, err := New(DefaultOptions(), pol, func(v feature.Vector) {
		count++
		if len(dims) < 3 {
			dims = append(dims, len(v.Values))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	processed := 0
	for i := range tr.Packets {
		if fe.Process(&tr.Packets[i]) {
			processed++
		}
	}
	fe.Flush()
	// Per-packet policy: one vector per processed packet (minus cells
	// dropped for unsynced FG keys, which must be rare).
	if count < processed*95/100 {
		t.Errorf("vectors = %d for %d packets", count, processed)
	}
	for _, d := range dims {
		if d != 115 {
			t.Errorf("Kitsune vector dim = %d, want 115", d)
		}
	}
}

func TestProcessReturnsFilterDecision(t *testing.T) {
	fe, err := New(DefaultOptions(), statsPolicy(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	tcp := packet.Packet{Tuple: flowkey.FiveTuple{SrcIP: 1, DstIP: 2, Proto: flowkey.ProtoTCP}, Size: 100}
	udp := packet.Packet{Tuple: flowkey.FiveTuple{SrcIP: 1, DstIP: 2, Proto: flowkey.ProtoUDP}, Size: 100}
	if !fe.Process(&tcp) || fe.Process(&udp) {
		t.Error("filter decision wrong")
	}
}

func TestPlanExposed(t *testing.T) {
	fe, err := New(DefaultOptions(), statsPolicy(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	if fe.Plan() == nil || fe.Plan().Policy.Name() != "stats" {
		t.Error("plan not exposed")
	}
	if fe.NICStateBytes() < 0 {
		t.Error("negative state bytes")
	}
}

func TestAllCatalogPoliciesDeploy(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 60
	tr := trace.Generate(cfg, 31)
	for _, e := range apps.Catalog() {
		var n int
		fe, err := New(DefaultOptions(), e.Build(), func(feature.Vector) { n++ })
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		fe.Flush()
		if n == 0 {
			t.Errorf("%s emitted no vectors", e.Name)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 80
	tr := trace.Generate(cfg, 77)
	run := func() []feature.Vector {
		var vecs []feature.Vector
		fe, _ := New(DefaultOptions(), statsPolicy(), feature.Collect(&vecs))
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		fe.Flush()
		sort.Slice(vecs, func(i, j int) bool { return vecs[i].Key.String() < vecs[j].Key.String() })
		return vecs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic vector count")
	}
	for i := range a {
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatal("nondeterministic features")
			}
		}
	}
}
