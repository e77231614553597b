package policy

import (
	"errors"
	"strings"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/streaming"
)

// figure3Policy reproduces the paper's Figure 3 basic-statistics
// policy.
func figure3Policy() *Builder {
	return New("fig3").
		Filter(TCPExists()).
		GroupBy(flowkey.GranFlow).
		Map("one", SrcNone, MapOne).
		Reduce("one", RF(streaming.FSum)).
		Collect().
		Reduce("size", RF(streaming.FMean), RF(streaming.FVar), RF(streaming.FMin), RF(streaming.FMax)).
		Collect().
		Map("ipt", SrcField(packet.FieldTimestamp), MapIPT).
		Reduce("ipt", RF(streaming.FMean), RF(streaming.FVar), RF(streaming.FMin), RF(streaming.FMax)).
		Collect()
}

func TestFigure3PolicyBuilds(t *testing.T) {
	p, err := figure3Policy().Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.FeatureDim() != 9 {
		t.Errorf("dim = %d, want 9 (count + 4 size + 4 ipt)", p.FeatureDim())
	}
	if g := p.Granularities(); len(g) != 1 || g[0] != flowkey.GranFlow {
		t.Error("single-granularity chain wrong")
	}
	if p.PerPacket() {
		t.Error("fig3 is per-group")
	}
}

func TestFigure4Policy(t *testing.T) {
	// The paper's Figure 4 distribution policy.
	p, err := New("fig4").
		GroupBy(flowkey.GranFlow).
		Map("ipt", SrcField(packet.FieldTimestamp), MapIPT).
		Reduce("ipt", RFHist(10000, 100)).
		Collect().
		Reduce("size", RFHist(100, 16)).
		Collect().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.FeatureDim() != 116 {
		t.Errorf("dim = %d, want 116", p.FeatureDim())
	}
}

func TestFigure5Policy(t *testing.T) {
	// The paper's Figure 5 direction-sequence policy.
	p, err := New("fig5").
		Filter(TCPExists()).
		GroupBy(flowkey.GranSocket).
		Map("one", SrcNone, MapOne).
		Map("direction", SrcKey("one"), MapDirection).
		Reduce("direction", RFArray(5000)).
		Collect().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.FeatureDim() != 5000 {
		t.Errorf("dim = %d", p.FeatureDim())
	}
	src := p.Source()
	for _, want := range []string{"pktstream", ".filter(", ".groupby(socket)", ".map(direction, one, f_direction)", ".reduce(direction, [f_array{5000}])", ".collect(g)"} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered source missing %q:\n%s", want, src)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want error
	}{
		{"empty", New("x"), ErrEmptyPolicy},
		{"no groupby", New("x").Map("one", SrcNone, MapOne), ErrNoGroupBy},
		{"filter after groupby", New("x").GroupBy(flowkey.GranFlow).Filter(TCPExists()), ErrFilterAfterGroup},
		{"duplicate gran", New("x").GroupBy(flowkey.GranFlow).GroupBy(flowkey.GranFlow), ErrGranRepeat},
		{"collect first", New("x").GroupBy(flowkey.GranFlow).Collect(), ErrCollectFirst},
		{"unknown key", New("x").GroupBy(flowkey.GranFlow).Reduce("nope", RF(streaming.FSum)), ErrUnknownSourceKey},
		{"unknown map src", New("x").GroupBy(flowkey.GranFlow).Map("d", SrcKey("nope"), MapIdentity), ErrUnknownSourceKey},
		{"key mapped at another granularity", crossGranProbe(), ErrUnknownSourceKey},
		{"map src mapped at another granularity", New("x").GroupBy(flowkey.GranHost).Map("one", SrcNone, MapOne).
			GroupBy(flowkey.GranFlow).Map("d", SrcKey("one"), MapIdentity), ErrUnknownSourceKey},
	}
	for _, c := range cases {
		_, err := c.b.Build()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestValidationRejectsBadParams(t *testing.T) {
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Reduce("size", RFHist(0, 0)).Collect().Build(); err == nil {
		t.Error("bad histogram params accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Reduce("size", RFArray(-5)).Collect().Build(); err == nil {
		t.Error("a negative f_array cap accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Map("", SrcNone, MapOne).Build(); err == nil {
		t.Error("unnamed map destination accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Map("one", SrcField(packet.FieldSize), MapOne).Build(); err == nil {
		t.Error("f_one with a source accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Map("d", SrcNone, MapIPT).Build(); err == nil {
		t.Error("f_ipt without a source accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Reduce("size", RF(streaming.FSum)).SynthesizeSample(0).Collect().Build(); err == nil {
		t.Error("ft_sample{0} accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Synthesize(SynthNorm).Build(); err == nil {
		t.Error("synthesize without reduce accepted")
	}
	if _, err := New("x").GroupBy(flowkey.GranFlow).
		Reduce("size", RF(streaming.FSum)).Build(); err == nil {
		t.Error("policy without collect accepted")
	}
}

func TestGranularityStamping(t *testing.T) {
	p, err := New("x").
		GroupBy(flowkey.GranHost).
		Reduce("size", RF(streaming.FSum)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Reduce("size", RF(streaming.FMean)).
		Collect().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Ops()
	// Find the two reduces and check their stamped granularity.
	var grans []flowkey.Granularity
	for _, op := range ops {
		if op.Kind == OpReduce {
			grans = append(grans, op.Gran)
		}
	}
	if len(grans) != 2 || grans[0] != flowkey.GranHost || grans[1] != flowkey.GranSocket {
		t.Errorf("reduce granularity stamping wrong: %v", grans)
	}
}

func TestLinesOfCode(t *testing.T) {
	p := figure3Policy().MustBuild()
	// pktstream + 10 operators.
	if p.LinesOfCode() != 11 {
		t.Errorf("LoC = %d, want 11", p.LinesOfCode())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid policy did not panic")
		}
	}()
	New("bad").MustBuild()
}
