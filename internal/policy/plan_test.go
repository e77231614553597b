package policy

import (
	"slices"
	"strings"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/streaming"
)

func TestCompilePartition(t *testing.T) {
	p := figure3Policy().MustBuild()
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Switch half: the TCP filter and the flow granularity.
	if plan.Switch.CG != flowkey.GranFlow || plan.Switch.FG != flowkey.GranFlow {
		t.Errorf("switch granularities: %v/%v", plan.Switch.CG, plan.Switch.FG)
	}
	pkt := packet.Packet{Tuple: flowkey.FiveTuple{Proto: flowkey.ProtoTCP}}
	if !plan.Switch.Pred.Eval(&pkt) {
		t.Error("TCP packet rejected by compiled filter")
	}
	pkt.Tuple.Proto = flowkey.ProtoUDP
	if plan.Switch.Pred.Eval(&pkt) {
		t.Error("UDP packet passed TCP filter")
	}
	// Metadata: size (built-in reduce source) and timestamp (f_ipt).
	fields := map[packet.FieldName]bool{}
	for _, f := range plan.Switch.MetadataFields {
		fields[f] = true
	}
	if !fields[packet.FieldSize] || !fields[packet.FieldTimestamp] {
		t.Errorf("metadata fields = %v", plan.Switch.MetadataFields)
	}
	// NIC half: stages exclude groupby/filter.
	for _, st := range plan.NIC.Stages {
		if st.Op.Kind == OpGroupBy || st.Op.Kind == OpFilter {
			t.Errorf("switch operator %s leaked into the NIC plan", st.Op.Kind)
		}
	}
	if plan.NIC.FeatureDim != 9 {
		t.Errorf("NIC feature dim = %d", plan.NIC.FeatureDim)
	}
}

func TestCompileMultipleFilters(t *testing.T) {
	p := New("x").
		Filter(TCPExists()).
		Filter(PortIs(443)).
		GroupBy(flowkey.GranFlow).
		Reduce("size", RF(streaming.FSum)).
		Collect().
		MustBuild()
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	tcp443 := packet.Packet{Tuple: flowkey.FiveTuple{Proto: flowkey.ProtoTCP, DstPort: 443}}
	tcp80 := packet.Packet{Tuple: flowkey.FiveTuple{Proto: flowkey.ProtoTCP, DstPort: 80}}
	if !plan.Switch.Pred.Eval(&tcp443) || plan.Switch.Pred.Eval(&tcp80) {
		t.Error("conjunction of filters wrong")
	}
}

func TestCompileStateSpecs(t *testing.T) {
	p := figure3Policy().MustBuild()
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sum + 4 size stats + 4 ipt stats + 1 ipt scratch = 10 states.
	if len(plan.NIC.StateSpecs) != 10 {
		t.Errorf("state specs = %d, want 10", len(plan.NIC.StateSpecs))
	}
	for _, s := range plan.NIC.StateSpecs {
		if s.Bytes <= 0 {
			t.Errorf("state %s has no size", s.Name)
		}
		if s.AccessPerPkt <= 0 {
			t.Errorf("state %s has no access count", s.Name)
		}
		if s.Gran != flowkey.GranFlow {
			t.Errorf("state %s at %s, want flow", s.Name, s.Gran)
		}
	}
}

func TestCompileDampedNeedsTimestamp(t *testing.T) {
	p := New("x").
		GroupBy(flowkey.GranHost).
		Reduce("size", RFDamped(streaming.FDMean, 1)).
		Collect().
		MustBuild()
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range plan.Switch.MetadataFields {
		if f == packet.FieldTimestamp {
			found = true
		}
	}
	if !found {
		t.Error("damped reducer did not force timestamp batching")
	}
}

// TestCellBytes checks the batched fields and the cell they make. A
// speed map batches its operand and the timestamp, not the size: the
// operand is the byte count it divides.
func TestCellBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pol    *Builder
		fields []packet.FieldName
	}{
		{"figure3", figure3Policy(), []packet.FieldName{packet.FieldSize, packet.FieldTimestamp}},
		{"speed over ttl", New("speed").
			GroupBy(flowkey.GranFlow).
			Map("sp", SrcField(packet.FieldTTL), MapSpeed).
			Reduce("sp", RF(streaming.FMax)).
			Collect(), []packet.FieldName{packet.FieldTTL, packet.FieldTimestamp}},
	} {
		plan, err := Compile(tc.pol.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Switch.MetadataFields; !slices.Equal(got, tc.fields) {
			t.Errorf("%s: metadata fields = %v, want %v", tc.name, got, tc.fields)
		}
		// 2 words × 4B + 2B FG index.
		if got := plan.Switch.CellBytes(); got != 10 {
			t.Errorf("%s: cell bytes = %d, want 10", tc.name, got)
		}
	}
}

func TestListings(t *testing.T) {
	p := figure3Policy().MustBuild()
	plan, _ := Compile(p)
	p4 := plan.P4Listing()
	for _, want := range []string{"parser", "filter_t", "cg_key", "fg_key"} {
		if !strings.Contains(p4, want) {
			t.Errorf("P4 listing missing %q", want)
		}
	}
	mc := plan.MicroCListing()
	for _, want := range []string{"MGPV cell", "reduce", "collect"} {
		if !strings.Contains(mc, want) {
			t.Errorf("Micro-C listing missing %q", want)
		}
	}
}

func TestBuiltinField(t *testing.T) {
	cases := map[string]packet.FieldName{
		"size": packet.FieldSize, "tstamp": packet.FieldTimestamp,
		"ip.src": packet.FieldSrcIP, "port.dst": packet.FieldDstPort,
	}
	for name, want := range cases {
		got, ok := BuiltinField(name)
		if !ok || got != want {
			t.Errorf("BuiltinField(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := BuiltinField("nonsense"); ok {
		t.Error("nonsense accepted as builtin")
	}
}

func TestPredicates(t *testing.T) {
	tcp := packet.Packet{Tuple: flowkey.FiveTuple{Proto: flowkey.ProtoTCP, DstPort: 80}, Size: 100}
	udp := packet.Packet{Tuple: flowkey.FiveTuple{Proto: flowkey.ProtoUDP, DstPort: 53}, Size: 60}
	cases := []struct {
		p    Predicate
		pkt  *packet.Packet
		want bool
	}{
		{TCPExists(), &tcp, true},
		{TCPExists(), &udp, false},
		{UDPExists(), &udp, true},
		{PortIs(80), &tcp, true},
		{PortIs(443), &tcp, false},
		{And(TCPExists(), PortIs(80)), &tcp, true},
		{Or(UDPExists(), PortIs(80)), &tcp, true},
		{Not(TCPExists()), &udp, true},
		{TruePred{}, &udp, true},
		{FieldPred{Field: packet.FieldSize, Op: CmpGt, Value: 64}, &tcp, true},
		{FieldPred{Field: packet.FieldSize, Op: CmpLe, Value: 64}, &udp, true},
		{FieldPred{Field: packet.FieldSize, Op: CmpNe, Value: 100}, &udp, true},
		{FieldPred{Field: packet.FieldSize, Op: CmpLt, Value: 100}, &udp, true},
		{FieldPred{Field: packet.FieldSize, Op: CmpGe, Value: 100}, &tcp, true},
	}
	for i, c := range cases {
		if got := c.p.Eval(c.pkt); got != c.want {
			t.Errorf("case %d (%s): got %v", i, c.p, got)
		}
	}
}

func TestPredicateRules(t *testing.T) {
	if TCPExists().Rules() != 1 {
		t.Error("equality should cost 1 rule")
	}
	gt := FieldPred{Field: packet.FieldSize, Op: CmpGt, Value: 64}
	if gt.Rules() != 2 {
		t.Error("range should cost 2 rules")
	}
	if And(TCPExists(), gt).Rules() != 2 {
		t.Error("AND should multiply rules")
	}
	if Or(TCPExists(), gt).Rules() != 3 {
		t.Error("OR should add rules")
	}
	if (TruePred{}).Rules() != 0 {
		t.Error("true predicate should be free")
	}
}

func TestReduceSpecString(t *testing.T) {
	if got := RFHist(100, 16).String(); got != "ft_hist{100, 16}" {
		t.Errorf("hist spec = %q", got)
	}
	if got := RF(streaming.FMean).String(); got != "f_mean" {
		t.Errorf("mean spec = %q", got)
	}
	if got := RFArray(5000).String(); got != "f_array{5000}" {
		t.Errorf("array spec = %q", got)
	}
	if got := RFPercent(10, 4, 0.5).String(); got != "ft_percent{10, 4, 0.5}" {
		t.Errorf("percent spec = %q", got)
	}
}
