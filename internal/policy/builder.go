package policy

import (
	"fmt"

	"superfe/internal/flowkey"
	"superfe/internal/streaming"
)

// Builder assembles a Policy with the fluent API shown in the package
// comment. Methods append operators; Build validates the whole
// program. Builder methods never fail individually — all diagnosis
// happens in Build so policies read like the paper's listings.
type Builder struct {
	name string
	ops  []Op
}

// New starts a policy with the given name ("pktstream" is implicit).
func New(name string) *Builder {
	return &Builder{name: name}
}

// Filter appends .filter(p).
func (b *Builder) Filter(p Predicate) *Builder {
	b.ops = append(b.ops, Op{Kind: OpFilter, Pred: p})
	return b
}

// GroupBy appends .groupby(g).
func (b *Builder) GroupBy(g flowkey.Granularity) *Builder {
	b.ops = append(b.ops, Op{Kind: OpGroupBy, Gran: g})
	return b
}

// Map appends .map(dst, src, mf).
func (b *Builder) Map(dst string, src Source, mf MapFunc) *Builder {
	b.ops = append(b.ops, Op{Kind: OpMap, Dst: dst, Src: src, MapF: mf})
	return b
}

// MapBurst appends .map(dst, src, f_burst) with the burst gap
// threshold in nanoseconds.
func (b *Builder) MapBurst(dst string, src Source, gapNS int64) *Builder {
	b.ops = append(b.ops, Op{Kind: OpMap, Dst: dst, Src: src, MapF: MapBurst, BurstNS: gapNS})
	return b
}

// Reduce appends .reduce(src, [rf...]).
func (b *Builder) Reduce(src string, rfs ...ReduceSpec) *Builder {
	b.ops = append(b.ops, Op{Kind: OpReduce, ReduceSrc: src, Reducers: rfs})
	return b
}

// Synthesize appends .synthesize(sf) post-processing the features of
// the preceding reduce.
func (b *Builder) Synthesize(sf SynthFunc) *Builder {
	b.ops = append(b.ops, Op{Kind: OpSynthesize, SynthF: sf})
	return b
}

// SynthesizeSample appends .synthesize(ft_sample{n}).
func (b *Builder) SynthesizeSample(n int) *Builder {
	b.ops = append(b.ops, Op{Kind: OpSynthesize, SynthF: SynthSample, SampleN: n})
	return b
}

// Collect appends .collect(g) — emit the accumulated features into
// the final per-group feature vector.
func (b *Builder) Collect() *Builder {
	b.ops = append(b.ops, Op{Kind: OpCollect})
	return b
}

// CollectPerPacket appends .collect(pkt) — emit one vector per
// packet.
func (b *Builder) CollectPerPacket() *Builder {
	b.ops = append(b.ops, Op{Kind: OpCollect, PerPacket: true})
	return b
}

// Build validates the operator sequence, computes the derived
// properties (granularity chain, feature dimension) and lowers the
// map, reduce, synthesize and collect operators into the NIC stages
// with every source resolved (resolve).
func (b *Builder) Build() (*Policy, error) {
	if len(b.ops) == 0 {
		return nil, ErrEmptyPolicy
	}
	p := &Policy{
		name: b.name,
		ops:  append([]Op(nil), b.ops...),
	}
	var grans []flowkey.Granularity
	seenGran := make(map[flowkey.Granularity]bool)
	seenGroup := false
	lastEmit := -1 // index of last reduce/synthesize not yet collected
	lastWidth := 0 // feature width of that op
	var curGran flowkey.Granularity
	// mapped: the keys the maps since the last groupby define, each the
	// index of its stage. A granularity's operators follow its one
	// groupby, so these are the keys defined at curGran.
	var mapped map[string]int

	for i := range p.ops {
		op := p.ops[i]
		// Stamp every post-groupby operator with the granularity it
		// operates within.
		if op.Kind != OpGroupBy {
			p.ops[i].Gran = curGran
		}
		stage := NICStage{Op: p.ops[i]}
		switch op.Kind {
		case OpFilter:
			if seenGroup {
				return nil, fmt.Errorf("%w (op %d)", ErrFilterAfterGroup, i)
			}
		case OpGroupBy:
			if seenGran[op.Gran] {
				return nil, fmt.Errorf("%w: %s (op %d)", ErrGranRepeat, op.Gran, i)
			}
			seenGran[op.Gran] = true
			grans = append(grans, op.Gran)
			seenGroup = true
			curGran = op.Gran
			mapped = map[string]int{}
		case OpMap:
			if !seenGroup {
				return nil, fmt.Errorf("%w: map at op %d", ErrNoGroupBy, i)
			}
			in, ok := resolve(op.Src, mapped)
			if !ok {
				return nil, fmt.Errorf("%w: %q (op %d)", ErrUnknownSourceKey, op.Src.Key, i)
			}
			stage.In = in
			if err := validateMap(op); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			mapped[op.Dst] = len(p.stages)
		case OpReduce:
			if !seenGroup {
				return nil, fmt.Errorf("%w: reduce at op %d", ErrNoGroupBy, i)
			}
			in, ok := resolve(SrcKey(op.ReduceSrc), mapped)
			if !ok {
				return nil, fmt.Errorf("%w: %q (op %d)", ErrUnknownSourceKey, op.ReduceSrc, i)
			}
			stage.In = in
			w := 0
			for _, rf := range op.Reducers {
				if err := streaming.Validate(rf.Func, rf.Params); err != nil {
					return nil, fmt.Errorf("op %d: %w", i, err)
				}
				w += streaming.FeatureWidth(rf.Func, rf.Params)
			}
			lastEmit, lastWidth = i, w
		case OpSynthesize:
			if lastEmit < 0 {
				return nil, fmt.Errorf("policy: synthesize at op %d without preceding reduce", i)
			}
			if op.SynthF == SynthSample {
				if op.SampleN <= 0 {
					return nil, fmt.Errorf("policy: ft_sample requires n > 0 (op %d)", i)
				}
				lastWidth = op.SampleN
			}
			// f_marker keeps the width: its markers replace elements of
			// the fixed-length view.
			lastEmit = i
		case OpCollect:
			if lastEmit < 0 {
				return nil, fmt.Errorf("%w (op %d)", ErrCollectFirst, i)
			}
			p.featureDim += lastWidth
			if op.PerPacket {
				p.perPacket = true
			}
			lastEmit, lastWidth = -1, 0
		}
		if op.Kind != OpGroupBy && op.Kind != OpFilter {
			p.stages = append(p.stages, stage)
		}
	}
	if !seenGroup {
		return nil, ErrNoGroupBy
	}
	p.grans = flowkey.ChainSort(grans)
	if p.featureDim == 0 {
		return nil, fmt.Errorf("policy %q: no collect — the policy produces no feature vector", b.name)
	}
	return p, nil
}

// MustBuild is Build that panics on error; intended for the static
// application policies in internal/apps whose validity is covered by
// tests.
func (b *Builder) MustBuild() *Policy {
	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("superfe: policy %q: %v", b.name, err))
	}
	return p
}

func validateMap(op Op) error {
	switch op.MapF {
	case MapOne:
		if op.Src.Kind != SourceNone {
			return fmt.Errorf("policy: f_one takes no source, got %s", op.Src)
		}
	case MapIPT, MapSpeed, MapBurst, MapDirection, MapIdentity:
		if op.Src.Kind == SourceNone {
			return fmt.Errorf("policy: %s requires a source", op.MapF)
		}
	}
	if op.Dst == "" {
		return fmt.Errorf("policy: map destination key must be named")
	}
	return nil
}

// resolve turns a map or reduce source into its operand. A key
// resolves by the one rule: the output of a map defined earlier at the
// same granularity (mapped), else a built-in field (the paper's
// Figure 4 reduces "size" directly); a key defined twice names its
// latest definition.
func resolve(src Source, mapped map[string]int) (Operand, bool) {
	switch src.Kind {
	case SourceField:
		return Operand{Kind: OperandField, Field: src.Field}, true
	case SourceKey:
		if s, ok := mapped[src.Key]; ok {
			return Operand{Kind: OperandStage, Stage: s}, true
		}
		if f, ok := BuiltinField(src.Key); ok {
			return Operand{Kind: OperandField, Field: f}, true
		}
		return Operand{}, false
	}
	return Operand{}, true
}
