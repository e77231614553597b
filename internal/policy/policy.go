// Package policy implements SuperFE's feature-extraction policy
// language (§4 of the paper): a small set of Spark-style dataflow
// operators — groupby, filter, map, reduce, synthesize, collect —
// applied to a stream of packet key-value tuples.
//
// A policy is written with the fluent builder:
//
//	p, err := policy.New("covert-basic").
//		Filter(policy.TCPExists()).
//		GroupBy(flowkey.GranFlow).
//		Map("one", policy.SrcNone, policy.MapOne).
//		Reduce("one", policy.RF(streaming.FSum)).
//		Collect().
//		Map("ipt", policy.SrcField(packet.FieldTimestamp), policy.MapIPT).
//		Reduce("ipt", policy.RF(streaming.FMean), policy.RF(streaming.FVar)).
//		Collect().
//		Build()
//
// Build validates operator ordering and parameters and returns an
// immutable Policy. Compile (plan.go) then partitions the policy into
// the switch plan (groupby + filter) and the NIC plan (map, reduce,
// synthesize, collect), mirroring §4.1's "Natural support to SuperFE
// architecture".
package policy

import (
	"errors"
	"fmt"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/streaming"
)

// OpKind enumerates the policy operators (Table 1 of the paper).
type OpKind uint8

// Policy operators.
const (
	OpGroupBy OpKind = iota
	OpFilter
	OpMap
	OpReduce
	OpSynthesize
	OpCollect
)

// String returns the operator's policy-language name.
func (k OpKind) String() string {
	switch k {
	case OpGroupBy:
		return "groupby"
	case OpFilter:
		return "filter"
	case OpMap:
		return "map"
	case OpReduce:
		return "reduce"
	case OpSynthesize:
		return "synthesize"
	case OpCollect:
		return "collect"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// MapFunc identifies a mapping function (Appendix A Table 5).
type MapFunc uint8

// Mapping functions.
const (
	MapOne       MapFunc = iota // f_one: constant 1
	MapIPT                      // f_ipt: inter-packet time from timestamps
	MapSpeed                    // f_speed: size / inter-packet time
	MapBurst                    // f_burst: burst boundary marker
	MapDirection                // f_direction: multiply by +1/-1 per direction
	MapIdentity                 // pass the source field through
	numMapFuncs
)

// NumMapFuncs is the count of defined mapping functions.
const NumMapFuncs = int(numMapFuncs)

// String returns the policy-language name of the mapping function.
func (m MapFunc) String() string {
	switch m {
	case MapOne:
		return "f_one"
	case MapIPT:
		return "f_ipt"
	case MapSpeed:
		return "f_speed"
	case MapBurst:
		return "f_burst"
	case MapDirection:
		return "f_direction"
	case MapIdentity:
		return "f_id"
	}
	return fmt.Sprintf("mf(%d)", uint8(m))
}

// SynthFunc identifies a synthesizing function (Appendix A Table 5).
type SynthFunc uint8

// Synthesizing functions.
const (
	SynthMarker SynthFunc = iota // f_marker: direction-change markers
	SynthNorm                    // f_norm: normalise the sequence
	SynthSample                  // ft_sample: sample n points from a sequence
	numSynthFuncs
)

// NumSynthFuncs is the count of defined synthesizing functions.
const NumSynthFuncs = int(numSynthFuncs)

// String returns the policy-language name of the synthesizing
// function.
func (s SynthFunc) String() string {
	switch s {
	case SynthMarker:
		return "f_marker"
	case SynthNorm:
		return "f_norm"
	case SynthSample:
		return "ft_sample"
	}
	return fmt.Sprintf("sf(%d)", uint8(s))
}

// Source describes where a map operator reads its input: a packet
// field, a previously mapped key, or nothing (f_one).
type Source struct {
	Kind  SourceKind
	Field packet.FieldName // when Kind == SourceField
	Key   string           // when Kind == SourceKey
}

// SourceKind discriminates Source.
type SourceKind uint8

// Source kinds.
const (
	SourceNone SourceKind = iota
	SourceField
	SourceKey
)

// SrcField makes a Source reading a packet field.
func SrcField(f packet.FieldName) Source { return Source{Kind: SourceField, Field: f} }

// SrcKey makes a Source reading a previously mapped key.
func SrcKey(name string) Source { return Source{Kind: SourceKey, Key: name} }

// SrcNone is the empty source used by f_one.
var SrcNone = Source{Kind: SourceNone}

// String renders the source in policy syntax.
func (s Source) String() string {
	switch s.Kind {
	case SourceField:
		return s.Field.String()
	case SourceKey:
		return s.Key
	default:
		return "_"
	}
}

// ReduceSpec is one reducing function plus its parameters.
type ReduceSpec struct {
	Func   streaming.Func
	Params streaming.Params
}

// RF builds a parameterless ReduceSpec.
func RF(f streaming.Func) ReduceSpec { return ReduceSpec{Func: f} }

// RFHist builds a histogram ReduceSpec with the given bin width and
// count (the ft_hist{width, bins} syntax of Figure 4).
func RFHist(width int64, bins int) ReduceSpec {
	return ReduceSpec{Func: streaming.FHist, Params: streaming.Params{BinWidth: width, Bins: bins}}
}

// RFPercent builds an ft_percent ReduceSpec.
func RFPercent(width int64, bins int, quantile float64) ReduceSpec {
	return ReduceSpec{Func: streaming.FPercent, Params: streaming.Params{BinWidth: width, Bins: bins, Quantile: quantile}}
}

// RFArray builds an f_array ReduceSpec with a fixed output length.
func RFArray(maxLen int) ReduceSpec {
	return ReduceSpec{Func: streaming.FArray, Params: streaming.Params{MaxLen: maxLen}}
}

// RFDamped builds a damped-window ReduceSpec (fd_* family) with the
// given decay rate λ in 1/seconds.
func RFDamped(f streaming.Func, lambda float64) ReduceSpec {
	return ReduceSpec{Func: f, Params: streaming.Params{Lambda: lambda}}
}

// String renders the spec in policy syntax.
func (r ReduceSpec) String() string {
	switch r.Func {
	case streaming.FHist, streaming.FPDF, streaming.FCDF:
		return fmt.Sprintf("%s{%d, %d}", r.Func, r.Params.BinWidth, r.Params.Bins)
	case streaming.FPercent:
		return fmt.Sprintf("%s{%d, %d, %g}", r.Func, r.Params.BinWidth, r.Params.Bins, r.Params.Quantile)
	case streaming.FArray:
		if r.Params.MaxLen > 0 {
			return fmt.Sprintf("%s{%d}", r.Func, r.Params.MaxLen)
		}
	}
	return r.Func.String()
}

// Op is one operator application in a policy.
type Op struct {
	Kind OpKind

	// Gran is the granularity argument of OpGroupBy; for the other
	// operator kinds Build fills it with the granularity of the most
	// recent preceding groupby, i.e. the group the operator applies
	// within (§4.1 "we confine the operation scope of other operators
	// within the group").
	Gran flowkey.Granularity

	// OpFilter
	Pred Predicate

	// OpMap
	Dst     string
	Src     Source
	MapF    MapFunc
	BurstNS int64 // MapBurst: gap threshold

	// OpReduce
	ReduceSrc string
	Reducers  []ReduceSpec

	// OpSynthesize
	SynthF      SynthFunc
	SampleN     int // SynthSample: number of points
	SynthTarget string

	// OpCollect
	PerPacket bool // collect(pkt) vs collect(g)
}

// String renders the operator in policy syntax, matching the figures
// in §4.2 so that printed policies look like the paper's listings.
func (o Op) String() string {
	switch o.Kind {
	case OpGroupBy:
		return fmt.Sprintf(".groupby(%s)", o.Gran)
	case OpFilter:
		return fmt.Sprintf(".filter(%s)", o.Pred)
	case OpMap:
		return fmt.Sprintf(".map(%s, %s, %s)", o.Dst, o.Src, o.MapF)
	case OpReduce:
		s := ""
		for i, r := range o.Reducers {
			if i > 0 {
				s += ", "
			}
			s += r.String()
		}
		return fmt.Sprintf(".reduce(%s, [%s])", o.ReduceSrc, s)
	case OpSynthesize:
		return fmt.Sprintf(".synthesize(%s)", o.SynthF)
	case OpCollect:
		if o.PerPacket {
			return ".collect(pkt)"
		}
		return ".collect(g)"
	}
	return ".?"
}

// Policy is a validated, immutable feature-extraction policy.
type Policy struct {
	name string
	ops  []Op
	// Derived during Build:
	grans      []flowkey.Granularity // dependency chain, coarse→fine
	featureDim int
	perPacket  bool
	stages     []NICStage // the NIC operators, sources resolved; Compile places their fields
}

// Name returns the policy's name.
func (p *Policy) Name() string { return p.name }

// Ops returns the operator sequence.
func (p *Policy) Ops() []Op { return p.ops }

// Granularities returns the dependency chain of grouping
// granularities, coarsest first (§5.1).
func (p *Policy) Granularities() []flowkey.Granularity { return p.grans }

// FeatureDim returns the dimension of the final feature vector, the
// quantity Table 3 of the paper reports per application.
func (p *Policy) FeatureDim() int { return p.featureDim }

// PerPacket reports whether the final vector is emitted per packet
// (collect(pkt)) rather than per group.
func (p *Policy) PerPacket() bool { return p.perPacket }

// LinesOfCode returns the policy's length in SuperFE policy-language
// lines: one line for the pktstream source plus one per operator —
// the LoC metric of Table 3.
func (p *Policy) LinesOfCode() int { return 1 + len(p.ops) }

// Source renders the complete policy as SuperFE policy-language
// source, matching the style of Figures 3-5 in the paper.
func (p *Policy) Source() string {
	s := "pktstream\n"
	for _, op := range p.ops {
		s += "  " + op.String() + "\n"
	}
	return s
}

// Validation errors.
var (
	ErrNoGroupBy        = errors.New("policy: no groupby operator — reduce/collect need a grouping")
	ErrCollectFirst     = errors.New("policy: collect before any reduce or synthesize")
	ErrUnknownSourceKey = errors.New("policy: map/reduce reads a key neither mapped earlier at its granularity nor built in")
	ErrEmptyPolicy      = errors.New("policy: empty operator list")
	ErrFilterAfterGroup = errors.New("policy: filter must precede groupby (switch executes filter first)")
	ErrGranRepeat       = errors.New("policy: duplicate groupby granularity")
)
