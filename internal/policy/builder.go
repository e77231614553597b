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

// Build validates the operator sequence and computes the derived
// properties (granularity chain, feature dimension).
func (b *Builder) Build() (*Policy, error) {
	if len(b.ops) == 0 {
		return nil, ErrEmptyPolicy
	}
	p := &Policy{
		name:       b.name,
		ops:        append([]Op(nil), b.ops...),
		mappedKeys: make(map[string]int),
	}
	var grans []flowkey.Granularity
	seenGran := make(map[flowkey.Granularity]bool)
	seenGroup := false
	lastEmit := -1 // index of last reduce/synthesize not yet collected
	lastWidth := 0 // feature width of that op
	var curGran flowkey.Granularity

	for i := range p.ops {
		op := p.ops[i]
		// Stamp every post-groupby operator with the granularity it
		// operates within.
		if op.Kind != OpGroupBy {
			p.ops[i].Gran = curGran
		}
		switch op.Kind {
		case OpFilter:
			if seenGroup {
				return nil, fmt.Errorf("%w (op %d)", ErrFilterAfterGroup, i)
			}
			p.filterCount++
		case OpGroupBy:
			if seenGran[op.Gran] {
				return nil, fmt.Errorf("%w: %s (op %d)", ErrGranRepeat, op.Gran, i)
			}
			seenGran[op.Gran] = true
			grans = append(grans, op.Gran)
			seenGroup = true
			curGran = op.Gran
		case OpMap:
			if !seenGroup {
				return nil, fmt.Errorf("%w: map at op %d", ErrNoGroupBy, i)
			}
			if op.Src.Kind == SourceKey {
				if _, ok := p.mappedKeys[op.Src.Key]; !ok {
					return nil, fmt.Errorf("%w: %q (op %d)", ErrUnknownSourceKey, op.Src.Key, i)
				}
			}
			if err := validateMap(op); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			p.mappedKeys[op.Dst] = i
		case OpReduce:
			if !seenGroup {
				return nil, fmt.Errorf("%w: reduce at op %d", ErrNoGroupBy, i)
			}
			if _, ok := p.mappedKeys[op.ReduceSrc]; !ok && !isBuiltinKey(op.ReduceSrc) {
				return nil, fmt.Errorf("%w: %q (op %d)", ErrUnknownSourceKey, op.ReduceSrc, i)
			}
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
			if op.SynthF == SynthMarker {
				// Markers at direction changes can at most double the
				// sequence plus bookkeeping; dimension is kept as-is
				// (markers replace elements in the fixed-length view).
			}
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
	}
	if !seenGroup {
		return nil, ErrNoGroupBy
	}
	p.hasGroupBy = true
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

// isBuiltinKey reports whether the reduce source is a packet field
// available without an explicit map (the paper's Figure 4 reduces
// "size" directly).
func isBuiltinKey(k string) bool {
	switch k {
	case "size", "tstamp", "ip.ttl", "tcp.flags", "ip.src", "ip.dst", "port.src", "port.dst":
		return true
	}
	return false
}
