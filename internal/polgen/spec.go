// Package polgen is the policy-space differential fuzzer behind
// cmd/superfe-fuzz: it generates structurally valid random policies
// spanning the operator mix the paper's Table 3 applications use
// (filters, granularity chains, map chains, streaming reducers,
// synthesizers), pairs each with a randomized hardware envelope
// (MGPV buffer splits, cache sizing, EMEM budget), asks planvet to
// classify the plan feasible/infeasible, and — for feasible plans —
// holds every leg of one differential table (diff.go) to the inline
// engine on the same seeded trace: the engine at one worker and
// sharded behind SPSC rings, telemetry on against off, a scoped fault
// plan, the independent software baseline, and the serve transport.
// The same runner carries the named cases in the package's tests.
//
// The package is deliberately self-describing: a Spec is a plain
// JSON value, so a failing policy shrinks to a minimal reproducer
// (shrink.go) and lands in testdata/corpus/, where TestCorpusReplay
// re-runs it on every plain `go test`.
package polgen

import (
	"fmt"

	"superfe/internal/faults"
	"superfe/internal/flowkey"
	"superfe/internal/nicsim"
	"superfe/internal/packet"
	"superfe/internal/planvet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
)

// Spec is the JSON-serializable intermediate representation of one
// fuzz case: a policy (filters + per-granularity blocks) plus the
// hardware envelope it is checked and run against, plus the trace
// seed. Everything is named with strings so corpus files are
// readable and stable even if enum values are reordered.
type Spec struct {
	Name      string       `json:"name"`
	TraceSeed int64        `json:"trace_seed"`
	Filters   []FilterSpec `json:"filters,omitempty"`
	Blocks    []BlockSpec  `json:"blocks"`
	Switch    SwitchSpec   `json:"switch"`
	NIC       NICSpec      `json:"nic"`
	// Workers is the parallel-engine shard count used when the plan
	// is feasible (clamped to [2,4] by Run).
	Workers int `json:"workers"`
	// Fault, when set, runs the obs and fault legs under the
	// materialized faults.Plan: telemetry on against off, and the
	// isolation contract (out-of-scope flows bit-identical to the clean
	// run) plus planprove soundness (a clean-proved plan trips no
	// saturation clamp even under faults, unless the kinds corrupt
	// frame payloads). The fault legs run only for single-granularity
	// policies — multi-granularity FG updates ride the reliable
	// channel, so scoped isolation is not exact.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// FaultSpec is the JSON slice of a faults.Plan: seed, rate and kind
// names. The scope is fixed to the upper half of the CG-hash space
// ([1<<31, 2^32-1]) so every trace leaves a large out-of-scope
// population to compare. Only flow-scoped kinds are allowed (wire
// faults, soft errors, EMEM failures); shard-wide hazards (aging and
// island stalls) ignore the scope and would void the comparison.
type FaultSpec struct {
	Seed  int64    `json:"seed"`
	Rate  float64  `json:"rate"`
	Kinds []string `json:"kinds"` // drop | dup | reorder | corrupt | truncate | softerror | ememfail
}

// FilterSpec is one pre-groupby filter predicate.
type FilterSpec struct {
	Kind string `json:"kind"` // tcp | udp | port | not-port
	Port int    `json:"port,omitempty"`
}

// BlockSpec is one granularity block: groupby, its map chain, and
// its reduce/synthesize/collect pipelines.
type BlockSpec struct {
	Gran    string       `json:"gran"` // flow | host | channel | socket
	Maps    []MapSpec    `json:"maps,omitempty"`
	Reduces []ReduceSpec `json:"reduces"`
}

// MapSpec is one map operator.
type MapSpec struct {
	Dst  string `json:"dst"`
	Func string `json:"func"`          // one | ipt | speed | burst | direction | identity
	Src  string `json:"src,omitempty"` // packet field name, or "key:<dst>"; empty for f_one
	// GapNS is the burst gap threshold (f_burst only).
	GapNS int64 `json:"gap_ns,omitempty"`
}

// ReduceSpec is one reduce ... collect pipeline: a source, one or
// more reducers, and an optional synthesizer applied before collect.
type ReduceSpec struct {
	Src      string        `json:"src"`
	Reducers []ReducerSpec `json:"reducers"`
	Synth    string        `json:"synth,omitempty"` // marker | norm | sample
	SampleN  int           `json:"sample_n,omitempty"`
}

// ReducerSpec is one streaming reducing function with its parameters.
type ReducerSpec struct {
	Func     string  `json:"func"`
	BinWidth int64   `json:"bin_width,omitempty"`
	Bins     int     `json:"bins,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
	MaxLen   int     `json:"max_len,omitempty"`
	Lambda   float64 `json:"lambda,omitempty"`
}

// SwitchSpec is the randomized slice of the switch configuration:
// the MGPV buffer split (cells per short/long buffer) and the cache
// population. Zero values mean "paper default".
type SwitchSpec struct {
	ShortBufCells int `json:"short_buf_cells,omitempty"`
	NumShort      int `json:"num_short,omitempty"`
	LongBufCells  int `json:"long_buf_cells,omitempty"`
	NumLong       int `json:"num_long,omitempty"`
}

// NICSpec is the randomized slice of the NIC configuration. Zero
// means "paper default" (3 MiB of EMEM).
type NICSpec struct {
	EMEMBytes int `json:"emem_bytes,omitempty"`
}

// --- name tables -----------------------------------------------------

var granByName = map[string]flowkey.Granularity{
	"flow":    flowkey.GranFlow,
	"host":    flowkey.GranHost,
	"channel": flowkey.GranChannel,
	"socket":  flowkey.GranSocket,
}

var mapFuncByName = map[string]policy.MapFunc{
	"one":       policy.MapOne,
	"ipt":       policy.MapIPT,
	"speed":     policy.MapSpeed,
	"burst":     policy.MapBurst,
	"direction": policy.MapDirection,
	"identity":  policy.MapIdentity,
}

var synthByName = map[string]policy.SynthFunc{
	"marker": policy.SynthMarker,
	"norm":   policy.SynthNorm,
	"sample": policy.SynthSample,
}

var reduceFuncByName = map[string]streaming.Func{
	"sum":      streaming.FSum,
	"mean":     streaming.FMean,
	"var":      streaming.FVar,
	"std":      streaming.FStd,
	"max":      streaming.FMax,
	"min":      streaming.FMin,
	"kurtosis": streaming.FKurtosis,
	"skew":     streaming.FSkew,
	"card":     streaming.FCard,
	"array":    streaming.FArray,
	"pdf":      streaming.FPDF,
	"cdf":      streaming.FCDF,
	"hist":     streaming.FHist,
	"percent":  streaming.FPercent,
	"mag":      streaming.FMag,
	"radius":   streaming.FRadius,
	"cov":      streaming.FCov,
	"pcc":      streaming.FPCC,
}

// faultKindByName covers only the flow-scoped kinds a FaultSpec may
// name; the shard-wide hazards are deliberately absent (see FaultSpec).
var faultKindByName = map[string]faults.Kind{
	"drop":      faults.KindDrop,
	"dup":       faults.KindDup,
	"reorder":   faults.KindReorder,
	"corrupt":   faults.KindCorrupt,
	"truncate":  faults.KindTruncate,
	"softerror": faults.KindSoftError,
	"ememfail":  faults.KindEMEMFail,
}

var fieldByName = map[string]packet.FieldName{
	"ip.src":    packet.FieldSrcIP,
	"ip.dst":    packet.FieldDstIP,
	"port.src":  packet.FieldSrcPort,
	"port.dst":  packet.FieldDstPort,
	"proto":     packet.FieldProto,
	"tcp.flags": packet.FieldFlags,
	"ip.ttl":    packet.FieldTTL,
	"size":      packet.FieldSize,
	"tstamp":    packet.FieldTimestamp,
}

// --- materialization -------------------------------------------------

// Build compiles the spec into a policy through the public builder,
// so every generated case passes the same validation users hit.
func (s *Spec) Build() (*policy.Policy, error) {
	b := policy.New(s.Name)
	for _, f := range s.Filters {
		p, err := f.predicate()
		if err != nil {
			return nil, err
		}
		b.Filter(p)
	}
	for _, blk := range s.Blocks {
		gran, ok := granByName[blk.Gran]
		if !ok {
			return nil, fmt.Errorf("polgen: unknown granularity %q", blk.Gran)
		}
		b.GroupBy(gran)
		for _, m := range blk.Maps {
			mf, ok := mapFuncByName[m.Func]
			if !ok {
				return nil, fmt.Errorf("polgen: unknown map func %q", m.Func)
			}
			src, err := mapSource(m)
			if err != nil {
				return nil, err
			}
			if mf == policy.MapBurst {
				b.MapBurst(m.Dst, src, m.GapNS)
			} else {
				b.Map(m.Dst, src, mf)
			}
		}
		for _, r := range blk.Reduces {
			var rfs []policy.ReduceSpec
			for _, rf := range r.Reducers {
				spec, err := rf.reduceSpec()
				if err != nil {
					return nil, err
				}
				rfs = append(rfs, spec)
			}
			b.Reduce(r.Src, rfs...)
			switch r.Synth {
			case "":
			case "sample":
				b.SynthesizeSample(r.SampleN)
			default:
				sf, ok := synthByName[r.Synth]
				if !ok {
					return nil, fmt.Errorf("polgen: unknown synth %q", r.Synth)
				}
				b.Synthesize(sf)
			}
			b.Collect()
		}
	}
	return b.Build()
}

func (f FilterSpec) predicate() (policy.Predicate, error) {
	switch f.Kind {
	case "tcp":
		return policy.TCPExists(), nil
	case "udp":
		return policy.UDPExists(), nil
	case "port":
		return policy.PortIs(uint16(f.Port)), nil
	case "not-port":
		return policy.Not(policy.PortIs(uint16(f.Port))), nil
	}
	return nil, fmt.Errorf("polgen: unknown filter kind %q", f.Kind)
}

func mapSource(m MapSpec) (policy.Source, error) {
	if m.Src == "" {
		return policy.SrcNone, nil
	}
	if key, ok := cutPrefix(m.Src, "key:"); ok {
		return policy.SrcKey(key), nil
	}
	fld, ok := fieldByName[m.Src]
	if !ok {
		return policy.Source{}, fmt.Errorf("polgen: unknown map source %q", m.Src)
	}
	return policy.SrcField(fld), nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

func (r ReducerSpec) reduceSpec() (policy.ReduceSpec, error) {
	f, ok := reduceFuncByName[r.Func]
	if !ok {
		return policy.ReduceSpec{}, fmt.Errorf("polgen: unknown reduce func %q", r.Func)
	}
	switch f {
	case streaming.FHist, streaming.FPDF, streaming.FCDF:
		return policy.ReduceSpec{Func: f, Params: streaming.Params{BinWidth: r.BinWidth, Bins: r.Bins}}, nil
	case streaming.FPercent:
		return policy.RFPercent(r.BinWidth, r.Bins, r.Quantile), nil
	case streaming.FArray:
		return policy.RFArray(r.MaxLen), nil
	default:
		return policy.RF(f), nil
	}
}

// SwitchConfig materializes the switch side of the envelope: the
// paper defaults with the spec's randomized knobs applied.
func (s *Spec) SwitchConfig() switchsim.Config {
	cfg := switchsim.DefaultConfig()
	if s.Switch.ShortBufCells > 0 {
		cfg.ShortBufCells = s.Switch.ShortBufCells
	}
	if s.Switch.NumShort > 0 {
		cfg.NumShort = s.Switch.NumShort
	}
	if s.Switch.LongBufCells > 0 {
		cfg.LongBufCells = s.Switch.LongBufCells
	}
	if s.Switch.NumLong > 0 {
		cfg.NumLong = s.Switch.NumLong
	}
	return cfg
}

// NICConfig materializes the NIC side of the envelope.
func (s *Spec) NICConfig() nicsim.Config {
	cfg := nicsim.DefaultConfig()
	if s.NIC.EMEMBytes > 0 {
		cfg.Memories[nicsim.MemEMEM].Bytes = s.NIC.EMEMBytes
	}
	return cfg
}

// FaultScopeLo is the lower bound of the fixed fault scope: faults
// hit only groups hashing into the upper half of the CG-hash space,
// so roughly half of every trace's flows stay out of scope and anchor
// the isolation comparison.
const FaultScopeLo = uint32(1) << 31

// FaultPlan materializes the spec's fault campaign, or nil. Unknown
// kind names are reported so corpus files fail loudly, not silently
// fault-free.
func (s *Spec) FaultPlan() (*faults.Plan, error) {
	if s.Fault == nil {
		return nil, nil
	}
	var kinds faults.Set
	for _, name := range s.Fault.Kinds {
		k, ok := faultKindByName[name]
		if !ok {
			return nil, fmt.Errorf("polgen: unknown fault kind %q", name)
		}
		kinds = kinds.With(k)
	}
	return &faults.Plan{
		Seed:    s.Fault.Seed,
		Rate:    s.Fault.Rate,
		Kinds:   kinds,
		ScopeLo: FaultScopeLo,
		ScopeHi: ^uint32(0),
	}, nil
}

// Model is the planvet envelope for this spec — the exact same
// configurations the engines deploy with, so the classifier and the
// runtime can never drift apart within one fuzz case.
func (s *Spec) Model() planvet.Model {
	return planvet.Model{Switch: s.SwitchConfig(), NIC: s.NICConfig()}
}
