package trace

import (
	"math"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := EnterpriseConfig
	cfg.Flows = 200
	a := Generate(cfg, 1)
	b := Generate(cfg, 1)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	c := Generate(cfg, 2)
	if len(c.Packets) == len(a.Packets) && c.Packets[0] == a.Packets[0] {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateMatchesTable2Targets(t *testing.T) {
	cases := []struct {
		cfg     WorkloadConfig
		flowTol float64
		sizeTol float64
	}{
		{MAWIConfig, 0.25, 0.10},
		{EnterpriseConfig, 0.15, 0.10},
		{CampusConfig, 0.20, 0.10},
	}
	for _, c := range cases {
		tr := Generate(c.cfg, 42)
		st := tr.Stats()
		if rel := math.Abs(st.AvgFlowLength-c.cfg.MeanFlowLen) / c.cfg.MeanFlowLen; rel > c.flowTol {
			t.Errorf("%s: avg flow length %g vs target %g (%.0f%% off)",
				c.cfg.Name, st.AvgFlowLength, c.cfg.MeanFlowLen, rel*100)
		}
		if rel := math.Abs(st.AvgPacketSize-c.cfg.MeanPktSize) / c.cfg.MeanPktSize; rel > c.sizeTol {
			t.Errorf("%s: avg packet size %g vs target %g", c.cfg.Name, st.AvgPacketSize, c.cfg.MeanPktSize)
		}
	}
}

func TestGeneratedPacketsValid(t *testing.T) {
	tr := Generate(CampusConfig, 7)
	for i := range tr.Packets {
		if err := packet.Validate(tr.Packets[i]); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
}

func TestTimestampsSorted(t *testing.T) {
	for _, tr := range []*Trace{
		Generate(EnterpriseConfig, 3),
		GenerateWebsites(DefaultWebsiteConfig(), 3),
		GenerateBotnet(DefaultBotnetConfig(), 3),
		GenerateCovert(DefaultCovertConfig(), 3),
		GenerateIntrusion(DefaultIntrusionConfig(AttackMirai), 3),
	} {
		for i := 1; i < len(tr.Packets); i++ {
			if tr.Packets[i].Timestamp < tr.Packets[i-1].Timestamp {
				t.Fatalf("%s: packet %d out of order", tr.Name, i)
			}
		}
	}
}

func TestLabelsAlignedThroughSort(t *testing.T) {
	tr := GenerateIntrusion(DefaultIntrusionConfig(AttackOSScan), 5)
	if len(tr.Labels) != len(tr.Packets) {
		t.Fatalf("labels %d != packets %d", len(tr.Labels), len(tr.Packets))
	}
	// All OS_Scan attack packets come from the scanner host; check
	// label agreement.
	scanner := flowkey.IPv4(192, 168, 1, 250)
	for i := range tr.Packets {
		fromScanner := tr.Packets[i].Tuple.SrcIP == scanner
		if fromScanner != (tr.Labels[i] == 1) {
			t.Fatalf("packet %d: label %d but fromScanner=%v (labels desynced)", i, tr.Labels[i], fromScanner)
		}
	}
}

func TestWebsiteClassesAreDiscriminative(t *testing.T) {
	cfg := DefaultWebsiteConfig()
	tr := GenerateWebsites(cfg, 11)
	if len(tr.FlowClasses) != cfg.Sites*cfg.VisitsPerSite {
		t.Fatalf("flow classes = %d", len(tr.FlowClasses))
	}
	// Visits of the same site must have more similar packet counts
	// than visits of different sites (coarse separability check).
	counts := map[flowkey.FiveTuple]int{}
	for i := range tr.Packets {
		canon, _ := tr.Packets[i].Tuple.Canonical()
		counts[canon]++
	}
	perSite := map[int][]float64{}
	for tup, site := range tr.FlowClasses {
		perSite[site] = append(perSite[site], float64(counts[tup]))
	}
	var within, between float64
	var siteMeans []float64
	for _, vals := range perSite {
		var m, v float64
		for _, x := range vals {
			m += x
		}
		m /= float64(len(vals))
		for _, x := range vals {
			v += (x - m) * (x - m)
		}
		within += v / float64(len(vals))
		siteMeans = append(siteMeans, m)
	}
	within /= float64(len(perSite))
	var gm float64
	for _, m := range siteMeans {
		gm += m
	}
	gm /= float64(len(siteMeans))
	for _, m := range siteMeans {
		between += (m - gm) * (m - gm)
	}
	between /= float64(len(siteMeans))
	if between < within {
		t.Errorf("site fingerprints not separable: between-var %g < within-var %g", between, within)
	}
}

func TestCovertFlowsHaveBimodalIPT(t *testing.T) {
	tr := GenerateCovert(DefaultCovertConfig(), 13)
	// Collect covert flows' inter-packet times.
	last := map[flowkey.FiveTuple]int64{}
	var short, long, mid int
	for i := range tr.Packets {
		if tr.Labels[i] != 1 {
			continue
		}
		tup := tr.Packets[i].Tuple
		if prev, ok := last[tup]; ok {
			ipt := tr.Packets[i].Timestamp - prev
			switch {
			case ipt < 4e6:
				short++
			case ipt > 7e6:
				long++
			default:
				mid++
			}
		}
		last[tup] = tr.Packets[i].Timestamp
	}
	total := short + long + mid
	if total == 0 {
		t.Fatal("no covert IPTs found")
	}
	if float64(mid)/float64(total) > 0.05 {
		t.Errorf("covert IPTs not bimodal: %d short, %d mid, %d long", short, mid, long)
	}
}

func TestBotnetBeaconRegularity(t *testing.T) {
	tr := GenerateBotnet(DefaultBotnetConfig(), 17)
	// Bot keep-alives are ~104-112B; benign traffic is diverse.
	var botSizes, benignSizes []float64
	for i := range tr.Packets {
		if tr.Labels[i] == 1 {
			botSizes = append(botSizes, float64(tr.Packets[i].Size))
		} else {
			benignSizes = append(benignSizes, float64(tr.Packets[i].Size))
		}
	}
	if len(botSizes) == 0 || len(benignSizes) == 0 {
		t.Fatal("missing traffic classes")
	}
	if v := variance(botSizes); v > 100 {
		t.Errorf("bot packet sizes too diverse: var %g", v)
	}
	if v := variance(benignSizes); v < 10000 {
		t.Errorf("benign packet sizes implausibly uniform: var %g", v)
	}
}

func variance(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs))
}

func TestIntrusionScenarios(t *testing.T) {
	for _, a := range []AttackKind{AttackMirai, AttackOSScan, AttackSSDPFlood} {
		tr := GenerateIntrusion(DefaultIntrusionConfig(a), 19)
		var attack int
		for _, l := range tr.Labels {
			if l == 1 {
				attack++
			}
		}
		if attack == 0 {
			t.Errorf("%s: no attack packets", a)
		}
		if attack == len(tr.Packets) {
			t.Errorf("%s: no benign packets", a)
		}
	}
	// SSDP flood targets one victim on UDP 1900.
	tr := GenerateIntrusion(DefaultIntrusionConfig(AttackSSDPFlood), 19)
	for i := range tr.Packets {
		if tr.Labels[i] == 1 {
			p := &tr.Packets[i]
			if p.Tuple.Proto != flowkey.ProtoUDP || p.Tuple.DstPort != 1900 {
				t.Fatalf("SSDP attack packet malformed: %v", p.Tuple)
			}
		}
	}
}

func TestAmplify(t *testing.T) {
	cfg := EnterpriseConfig
	cfg.Flows = 50
	tr := Generate(cfg, 23)
	amp := Amplify(tr, 3)
	if len(amp.Packets) != 3*len(tr.Packets) {
		t.Fatalf("amplified = %d, want %d", len(amp.Packets), 3*len(tr.Packets))
	}
	// Replicas must be distinct flows.
	orig := tr.Stats()
	amped := amp.Stats()
	if amped.Flows != 3*orig.Flows {
		t.Errorf("amplified flows = %d, want %d", amped.Flows, 3*orig.Flows)
	}
	// Factor 1 is the identity.
	if Amplify(tr, 1) != tr {
		t.Error("factor 1 should return the input")
	}
}

func TestStatsString(t *testing.T) {
	cfg := CampusConfig
	cfg.Flows = 10
	tr := Generate(cfg, 29)
	if s := tr.Stats().String(); s == "" {
		t.Error("empty stats string")
	}
}

// TestNamedIsCaseInsensitive pins the one name→trace table both
// commands share: any case selects the trace, an unknown name fails.
func TestNamedIsCaseInsensitive(t *testing.T) {
	for _, name := range []string{"campus", "CAMPUS", "Covert"} {
		if tr, err := Named(name, 1); err != nil || len(tr.Packets) == 0 {
			t.Errorf("Named(%q): %v", name, err)
		}
	}
	if _, err := Named("nosuch", 1); err == nil {
		t.Error("an unknown name generated a trace")
	}
}
