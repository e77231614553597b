package baseline

import (
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
)

// Interpreter computes a plan's features from the switch→NIC message
// stream the way a software extractor does: for every cell it walks the
// policy's ops in order, resolves map keys by name, and keeps groups in
// a map keyed by flowkey.Key, each holding one private reducer per
// reduce spec (reducers.go). It shares no code with nicsim — no op table,
// state record, decay memo, group table or drain — so it is the oracle
// the Runtime is held to bit for bit
// (nicsim.TestFusedRuntimeMatchesPrivateReducers), and the Extractor
// built on it is independent of the whole pipeline.
type Interpreter struct {
	plan   *policy.Plan
	sink   feature.Sink
	single bool // one granularity, CG = FG: a cell's group is its MGPV's
	pos    map[packet.FieldName]int
	fg     map[uint16]flowkey.FiveTuple
	groups map[flowkey.Key]*group
	// fgKeys lists the finest-granularity groups in admission order, the
	// order Flush emits them in.
	fgKeys []flowkey.Key
	// inj, when set, fails group admissions as the Runtime's injector
	// does: one draw per cell and granularity whose group is missing, in
	// order, so two injectors of one plan stay in step.
	inj *faults.Injector
	env map[string]int64
}

type group struct {
	reducers [][]reducer   // by op index, then spec index
	last     map[int]int64 // map op index → previous source value or time
	bursts   map[int]int64
	lastTS   uint32
	// clock is the latest time any cell carried, the 32-bit timestamps
	// unwrapped: what the reducers are shown instead of the raw ts.
	clock   int64
	started bool
}

// NewInterpreter builds the interpreter of plan, emitting into sink.
// inj may be nil.
func NewInterpreter(plan *policy.Plan, sink feature.Sink, inj *faults.Injector) *Interpreter {
	n := &Interpreter{plan: plan, sink: sink, inj: inj,
		single: len(plan.Switch.Chain) == 1 && plan.Switch.CG == plan.Switch.FG,
		pos:    map[packet.FieldName]int{}, fg: map[uint16]flowkey.FiveTuple{},
		groups: map[flowkey.Key]*group{}, env: map[string]int64{}}
	for i, f := range plan.Switch.MetadataFields {
		n.pos[f] = i
	}
	return n
}

// Process consumes one switch→NIC message: an FG table update, or an
// MGPV whose cells run in order, each at every granularity of the chain
// (a multi-granularity cell finds its finest key through the FG table,
// as the NIC does).
func (n *Interpreter) Process(m gpv.Message) {
	if m.FG != nil {
		n.fg[m.FG.Index] = m.FG.Key
		return
	}
	v := m.MGPV
	for ci := range v.Cells {
		cell := &v.Cells[ci]
		tuple := v.CG.Tuple
		if !n.single {
			var ok bool
			if tuple, ok = n.fg[cell.FGIndex]; !ok {
				continue
			}
		}
		if !cell.Forward {
			tuple = tuple.Reverse()
		}
		var vals []float64
		for _, gran := range n.plan.Switch.Chain {
			key, fwd := v.CG, cell.Forward
			if !n.single {
				key, fwd = flowkey.KeyFor(gran, tuple)
			}
			g := n.groups[key]
			if g == nil {
				if n.inj.EMEMFail(v.Hash) {
					continue // this granularity loses the cell
				}
				g = &group{reducers: make([][]reducer, len(n.plan.Policy.Ops())), last: map[int]int64{}, bursts: map[int]int64{}}
				n.groups[key] = g
				if key.Gran == n.plan.Switch.FG {
					n.fgKeys = append(n.fgKeys, key)
				}
			}
			vals = n.cell(gran, g, cell, fwd, vals)
		}
		if len(vals) > 0 { // a collect emits at least one feature
			key := v.CG
			if !n.single {
				key, _ = flowkey.KeyFor(n.plan.Switch.FG, tuple)
			}
			n.sink(feature.Vector{Key: key, Timestamp: n.field(cell, packet.FieldTimestamp), Values: vals})
		}
	}
}

func (n *Interpreter) field(cell *gpv.Cell, f packet.FieldName) int64 {
	if p, ok := n.pos[f]; ok {
		return int64(cell.Values[p])
	}
	return 0
}

// cell runs gran's ops over one cell and appends the per-packet
// collects to vals.
func (n *Interpreter) cell(gran flowkey.Granularity, g *group, cell *gpv.Cell, fwd bool, vals []float64) []float64 {
	ts := uint32(n.field(cell, packet.FieldTimestamp))
	now := int64(ts)
	if g.started {
		now = g.clock + int64(int32(ts-uint32(g.clock)))
	}
	if !g.started || now > g.clock {
		g.clock, g.started = now, true
	}
	clear(n.env)
	load := func(name string) int64 {
		if x, ok := n.env[name]; ok {
			return x
		}
		f, _ := policy.BuiltinField(name)
		return n.field(cell, f)
	}
	ops := n.plan.Policy.Ops()
	for oi := range ops {
		op := &ops[oi]
		if op.Gran != gran {
			continue
		}
		switch op.Kind {
		case policy.OpMap:
			var src int64
			switch op.Src.Kind {
			case policy.SourceField:
				src = n.field(cell, op.Src.Field)
			case policy.SourceKey:
				src = load(op.Src.Key)
			}
			prev, seen := g.last[oi]
			var out int64
			switch op.MapF {
			case policy.MapOne:
				out = 1
			case policy.MapIdentity:
				out = src
			case policy.MapDirection:
				out = src
				if !fwd {
					out = -src
				}
			case policy.MapIPT:
				if seen {
					out = int64(uint32(src) - uint32(prev))
				}
				g.last[oi] = src
			case policy.MapSpeed:
				if dt := int64(ts - uint32(prev)); seen && dt > 0 {
					out = src * 1e9 / dt
				}
				g.last[oi] = int64(ts)
			case policy.MapBurst:
				if !seen || int64(uint32(src)-uint32(prev)) > op.BurstNS {
					g.bursts[oi]++
				}
				g.last[oi] = src
				out = g.bursts[oi]
			}
			n.env[op.Dst] = out
		case policy.OpReduce:
			x := load(op.ReduceSrc)
			if g.reducers[oi] == nil {
				g.reducers[oi] = make([]reducer, len(op.Reducers))
				for si, rf := range op.Reducers {
					g.reducers[oi][si] = newReducer(rf.Func, rf.Params)
				}
			}
			for _, r := range g.reducers[oi] {
				r.Observe(x, now)
			}
		}
	}
	g.lastTS = ts
	if !n.plan.Policy.PerPacket() {
		return vals // every collect waits for Flush
	}
	return n.collect(gran, g, true, vals)
}

// collect appends the features of gran's per-packet (or per-group)
// collects: the reduces since the previous collect, in order, passed
// through any synthesize between them and the collect.
func (n *Interpreter) collect(gran flowkey.Granularity, g *group, perPacket bool, vals []float64) []float64 {
	var pending []float64
	var synth []*policy.Op
	ops := n.plan.Policy.Ops()
	for oi := range ops {
		op := &ops[oi]
		if op.Gran != gran {
			continue
		}
		switch op.Kind {
		case policy.OpReduce:
			for si, rf := range op.Reducers {
				pending = g.reducers[oi][si].AppendFeatures(pending, streaming.ViewOf(rf.Func, rf.Params))
			}
		case policy.OpSynthesize:
			synth = append(synth, op)
		case policy.OpCollect:
			if op.PerPacket == perPacket {
				for _, s := range synth {
					pending = s.Synthesize(pending)
				}
				vals = append(vals, pending...)
			}
			pending, synth = nil, nil
		}
	}
	return vals
}

// Flush emits one vector per finest-granularity group of a per-group
// policy, in admission order, each the concatenation of its own and its
// coarser groups' collects.
func (n *Interpreter) Flush() {
	if n.plan.Policy.PerPacket() {
		return
	}
	for _, k := range n.fgKeys {
		var vals []float64
		for _, gran := range n.plan.Switch.Chain {
			pk := k
			if gran != k.Gran {
				pk = flowkey.Project(gran, k.Tuple)
			}
			if pg := n.groups[pk]; pg != nil {
				vals = n.collect(gran, pg, false, vals)
			}
		}
		if len(vals) > 0 {
			n.sink(feature.Vector{Key: k, Timestamp: int64(n.groups[k].lastTS), Values: vals})
		}
	}
}
