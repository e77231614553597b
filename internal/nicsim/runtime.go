package nicsim

import (
	"fmt"
	"math"
	"slices"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
)

// Runtime is the functional FE-NIC engine: it consumes the switch→NIC
// message stream (FG table updates and evicted MGPVs), maintains
// per-group state with the compiled plan's map/reduce stages, and
// emits feature vectors. One Runtime models one core's shard;
// core.Engine pairs each with a switch and shards packets across the
// pairs by CG hash, the way the NBI distributes packets per-IP (§6.2).
type Runtime struct {
	plan *policy.Plan

	// FG key table, synchronised from the switch (§5.1). Indexed by
	// the FGUpdate index; syncFG grows it by doubling to cover the
	// highest index synced, so a single-granularity plan (which ships
	// none) never pays for it.
	fgTable []fgSlot
	// fgRefs caches what a cell's FG key resolves to: per FG index,
	// orientation and program, the group ref (refFwd set when the cell
	// runs forward relative to the group's key), 0 until a cell
	// resolves it. Index i's refs for orientation o (1: Forward) are
	// fgRefs[(2i+o)·P:][:P], P programs. Records never move and groups
	// never retire, so a ref holds until syncFG rewrites the index's key,
	// which clears both orientations' refs.
	fgRefs []uint32

	// programs, one per granularity in the chain, in chain order; each
	// owns the group table of its granularity. fgProg is the FG's.
	programs []*program
	fgProg   *program
	// single is set for a one-granularity chain: no FG keys are
	// shipped, the MGPV's CG key is the group key.
	single bool

	sink  feature.Sink
	stats RuntimeStats

	// obs mirrors cfg.Obs. The hot path only mutates the plain stats
	// struct; PublishObs pushes what the stats' rows gained into the
	// registry at batch boundaries (same discipline as the switch's
	// publishObs).
	obs        *obs.Pipeline
	pub        obs.Bound
	groupsLive obs.Gauge

	// tsPos is the position of the timestamp metadata within cell
	// Values (-1 when not batched), resolved once so the per-cell path
	// never scans the plan's field list.
	tsPos int

	// decay is the cell in hand's decay factors by rate and interval,
	// shared by the granularities: a packet's groups mostly stand the same
	// few intervals behind it.
	decay streaming.Decay

	// inj mirrors cfg.Faults (nil when injection is disabled).
	inj *faults.Injector
	// fr mirrors cfg.FlightRec (nil-safe; EMEM-drop events coalesced
	// exponentially so sustained drop storms cost O(log n) records).
	fr *obs.Ring[obs.Event]

	// ppVals is the reused accumulation buffer every vector's values
	// are appended into (per-packet collects and Flush alike); sinks
	// must not retain vector Values past the call.
	ppVals []float64
	// drainMemo is Flush's last group per program.
	drainMemo []record
}

type fgSlot struct {
	key flowkey.FiveTuple
	set bool
}

// fgTableMinSlots is the FG table's length at its first sync.
const fgTableMinSlots = 64

// refFwd is a group ref's direction bit: the cell runs forward relative
// to the group's key (flowkey.KeyFor's forward). The low bits are the
// group's ref in its table (groupTable.lookup).
const refFwd = 1 << 31

// RuntimeStats aggregates the NIC-side counters: what the executor
// did, nothing modelled. The uint64 fields are monotonic counters: they
// only ever increase, interval rates are meaningful, and merging shards
// sums totals. GroupsLive is a gauge — the instantaneous state size
// Stats() refreshes, not a cumulative event count — so a shard merge
// sums the current occupancy across shards, and diffing two snapshots
// of it is meaningless. The telemetry registry (internal/obs) tags it
// accordingly: gauges are carried through interval deltas while
// counters are diffed.
type RuntimeStats struct {
	Msgs      uint64
	MGPVs     uint64
	FGUpdates uint64
	Cells     uint64
	UnknownFG uint64 // cells whose FG index had no synced key (dropped)
	Vectors   uint64
	// EMEMDrops counts per-granularity cell contributions dropped by
	// injected transient EMEM allocation failures on group admission.
	EMEMDrops uint64
	// RangeClamps counts reducer inputs outside the narrowest
	// clamp-free histogram range of their reduce op (streaming
	// behaviourally clamps them: tails into the last bin, negatives
	// into bin 0). SatInputs counts inputs inside every clamp range
	// whose magnitude exceeds the op's narrowest fixed-point input
	// lane (streaming.Contract.FixedPointMax): exact in the int64
	// simulator, saturating on a deployed dataplane. Both are
	// counter-only — values pass through unmodified — and are the
	// ground truth planprove's static verdicts are cross-checked
	// against (a plan proved clean must keep both at zero).
	RangeClamps uint64
	SatInputs   uint64
	GroupsLive  int // gauge: live per-granularity group-state entries
}

// Rows declares every counter once: its series and the word it lives
// in. Add, the shard registry's schema and the batch-boundary publish
// are all this list, so a new counter is a field, a row here and its
// increment. The gauge is not a row: Stats() and PublishObs refresh it
// from the group tables.
func (s *RuntimeStats) Rows() []obs.Row {
	return []obs.Row{
		{Name: "superfe_nic_msgs_total", Help: "messages consumed from the switch-to-NIC channel", Word: &s.Msgs},
		{Name: "superfe_nic_mgpvs_total", Help: "MGPV messages merged into NIC group state", Word: &s.MGPVs},
		{Name: "superfe_nic_fg_updates_total", Help: "FG key table updates applied", Word: &s.FGUpdates},
		{Name: "superfe_nic_cells_total", Help: "MGPV cells processed by the NIC programs", Word: &s.Cells},
		{Name: "superfe_nic_unknown_fg_total", Help: "cells dropped for an unsynced FG index", Word: &s.UnknownFG},
		{Name: "superfe_nic_vectors_total", Help: "feature vectors emitted", Word: &s.Vectors},
		{Name: "superfe_nic_emem_drops_total", Help: "cell contributions dropped by injected EMEM allocation failures on group admission", Word: &s.EMEMDrops},
		{Name: "superfe_nic_range_clamps_total", Help: "reducer inputs outside their op's narrowest clamp-free histogram range", Word: &s.RangeClamps},
		{Name: "superfe_nic_sat_inputs_total", Help: "reducer inputs past their op's narrowest fixed-point input lane", Word: &s.SatInputs},
	}
}

// Add accumulates another runtime's counters — how core.Engine merges
// its shards' stats.
func (s *RuntimeStats) Add(o RuntimeStats) {
	obs.AddRows(s.Rows(), o.Rows())
	s.GroupsLive += o.GroupsLive
}

// opcode is the operation of one op-table row: opReduce, or a
// mapping function's own number.
type opcode uint8

const opReduce = opcode(policy.NumMapFuncs)

// instruction is one row of a granularity's op table. Operands are
// columns of the program's run (program.cols): a batched field the
// cells carry, or a map op's output.
type instruction struct {
	code opcode
	// reduce: how many of the policy's reduce ops the row stands for.
	// An op whose damped states all fused into lanes of states an
	// earlier op over its source feeds is merged into that op
	// (fuseLanes), and an input is counted once per op.
	ops uint32
	// src is the operand's column (-1: f_one reads none).
	src int
	// map: destination column; last, the record word of the previous
	// cell's input (ipt, burst), 0 where that is the previous cell's
	// timestamp, which the op reads from the group's one last-timestamp
	// word (speed always does); count, burst's burst counter; burst gap.
	dst         int
	last, count int
	burstNS     int64
	// reduce: the states this op feeds, as positions in program.states.
	// A state whose family an earlier reduce of the same source already
	// feeds is not listed again: each state observes a cell once.
	states []int
	// reduce: the narrowest input contracts across the op's reducers
	// (see streaming.ContractFor), priced once at compile time so the
	// per-cell saturation accounting is two compares. satLo/satHi
	// bound the clamp-free range [satLo, satHi); fpMax bounds |x| for
	// the fixed-point input lane.
	satLo, satHi, fpMax int64
}

// fieldCol is a batched field an op reads: its position in the cells'
// Values and the column it is gathered into.
type fieldCol struct{ pos, col int }

// runChunk is the most cells one run of an op table spans, the length
// of a program's columns. A longer MGPV runs in chunks of it; at the
// switch's default buffers (4 short + 20 long cells) an MGPV is one.
const runChunk = 32

// program is the compiled op table for one granularity, the layout of
// that granularity's group record, and the store of its groups.
//
// The layout rule: after the fixed header (recHeader words) come the
// header words the program reads (lastTS, clock, in that order),
// then the map ops' scratch words in op order, then the states in the
// order their first reduce op names them, each its streaming.Kernel's
// words at stateSpec.off. A log state (f_array, and every state of cfg.Naive)
// keeps its samples in logs, and its word there says where. A record
// holds each fact once: the maps that read the previous cell's
// timestamp share the lastTS word, and no state keeps a count of its
// samples, which is the group's cell count (recCells).
type program struct {
	gran flowkey.Granularity
	// isCG / isFG: the granularity is the plan's coarsest / finest,
	// resolved once. At the CG the MGPV's carried hash probes the
	// table; the FG's groups are the ones Flush emits.
	isCG, isFG bool
	table      groupTable
	logs       streaming.Logs

	instrs []instruction
	// numScratch is the map scratch the modelled NIC prices, 16 bytes a
	// word (StateBytes): ipt's and speed's last timestamp, burst's last
	// timestamp and counter. The record keeps fewer (instruction.last,
	// count).
	numScratch int
	// fields lists the batched fields the ops read. An operand is a
	// column: every field's, gathered from the cells, and every map op's
	// output. env holds one cell's, for runCell; cols a run's, runChunk
	// values a column, and nows its cell times, for runSpan. Sized at
	// compile time and reused (one runtime = one goroutine).
	fields []fieldCol
	env    []int64
	cols   []int64
	nows   []int64
	// runs: the program takes an MGPV's cells as one run instead of one
	// at a time (see NewRuntime).
	runs bool
	// states lists the group state this program keeps: one per source
	// and reducer family (streaming.FamilyOf), however many of the
	// policy's reduce specs are views of it.
	states []stateSpec
	// lanes lists the decay lanes (Runtime.decay) of the damped states,
	// one per distinct rate. The states of a group share its clock, so a
	// cell costs at most one decay factor per lane, not one per state.
	lanes []int
	step  streaming.Step // this cell's clock step, reused
	// lastTS and clock are the header words a record keeps only where
	// something reads them: each its offset past the fixed header, or 0
	// where the record has none (word 0 is the key's).
	//   - lastTS: the timestamp of the group's latest cell; the FG
	//     program's of a per-group policy, the timestamp of the vector
	//     Flush emits, and any program's whose maps read the previous
	//     cell's timestamp (ipt or burst over it, speed).
	//   - clock: the latest time any cell of the group carried, the
	//     32-bit cell timestamps unwrapped into 64 bits (cellTime); kept
	//     where a damped lane decays on it or a naive log records it.
	//     Every other op reads only a cell's low 32 bits, which the cell
	//     carries.
	lastTS, clock int
	// out is the program's collect ops compiled into one read-out: the
	// per-packet ones of a per-packet policy, read every cell
	// (perPacket), or those Flush emits.
	out       readOut
	perPacket bool
}

// stateSpec describes one state of the record.
type stateSpec struct {
	// off is the state's first word in the record, where kern's words
	// lie. A fused damped state's fn and params are its first lane's.
	off    int
	kern   streaming.Kernel
	fn     streaming.Func
	params streaming.Params
	// views counts the reduce specs reading the state, over all its
	// lanes: the executable keeps one copy, the modelled NIC
	// (StateBytes, plan.NIC.StateSpecs, the cost model) is priced per
	// spec.
	views int
	// src is the column the state observes.
	src int
	// read is the state's part of the read-out when the program reads
	// out every cell (perPacket): runCell has the state write its
	// features as it observes the cell. nil otherwise.
	read *streaming.ReadPlan
}

// readOut is a program's collect ops compiled at deploy: every feature
// they emit has a position in a window of width values, and each state
// is read once, all its views and lanes in one call
// (streaming.Kernel.Read), with no per-view dispatch left for the cell.
type readOut struct {
	width int
	reads []stateRead
	// emits is set when a collect synthesizes: the collects' regions of
	// the window, in order, each rewritten through its synthesize ops.
	emits []emitSpan
	raw   []float64 // the window before synthesis, reused
}

// stateRead is one state's part of a read-out.
type stateRead struct {
	state int
	plan  streaming.ReadPlan
}

// emitSpan is a collect's region [lo, hi) of its read-out's window and
// the synthesize ops applied to it.
type emitSpan struct {
	lo, hi int
	synth  []policy.Op
}

// NewRuntime compiles the plan into per-granularity programs.
func NewRuntime(cfg Config, plan *policy.Plan, sink feature.Sink) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("nicsim: nil sink")
	}
	r := &Runtime{
		plan:   plan,
		single: len(plan.Switch.Chain) == 1 && plan.Switch.CG == plan.Switch.FG,
		sink:   sink,
		inj:    cfg.Faults,
		fr:     cfg.FlightRec,
	}
	for _, g := range plan.Switch.Chain {
		pr, err := compileProgram(plan, g, cfg.Naive, &r.decay)
		if err != nil {
			return nil, err
		}
		// A run is one pass of each op over a group's cells, which
		// changes no result when every cell is the group's (one
		// granularity: the MGPV's key is the group key), nothing is
		// emitted between cells (no per-packet collect), and no state
		// reads the clock the cells advance (no decay lane).
		pr.runs = r.single && len(pr.lanes) == 0 && !pr.perPacket
		r.programs = append(r.programs, pr)
		if pr.isFG {
			r.fgProg = pr
		}
	}
	r.tsPos = slices.Index(plan.Switch.MetadataFields, packet.FieldTimestamp)
	r.drainMemo = make([]record, len(r.programs))
	if cfg.Obs != nil {
		r.obs = cfg.Obs
		reg := cfg.Obs.Registry
		r.pub = reg.Bind(r.stats.Rows())
		r.groupsLive = reg.Gauge("superfe_nic_groups_live", "live per-granularity group-state entries")
	}
	return r, nil
}

// PublishObs pushes what the counters gained since the last publish
// into the registry and refreshes the live-group gauge. The owning
// engine calls it once per columnar batch so the per-event NIC path
// carries no lock-prefixed instructions; scrapers see batch-granular
// values, which barrier-quiesced snapshots never observe mid-step.
// No-op without telemetry.
func (r *Runtime) PublishObs() {
	if r.obs == nil {
		return
	}
	r.pub.Publish()
	r.groupsLive.Set(int64(r.occupancy()))
}

// compileProgram lowers the NIC stages at granularity g into an op
// table with column operands and shared state families, fuses the
// damped states of each source into lanes (fuseLanes), compiles the
// collects into one read-out and lays out the record. naive
// (Config.Naive) gives every reduce spec a state of its own: the
// store-everything ablation is one buffer per feature. Nothing else of
// the deployment shapes the record.
func compileProgram(plan *policy.Plan, g flowkey.Granularity, naive bool, decay *streaming.Decay) (*program, error) {
	pr := &program{gran: g, isCG: g == plan.Switch.CG, isFG: g == plan.Switch.FG}
	numCols := 0
	// stageCol[i] is the column map stage i writes.
	stageCol := make([]int, len(plan.NIC.Stages))
	operand := func(in policy.Operand) int {
		switch in.Kind {
		case policy.OperandField:
			for _, f := range pr.fields {
				if f.pos == in.Pos {
					return f.col
				}
			}
			pr.fields = append(pr.fields, fieldCol{in.Pos, numCols})
			numCols++
			return numCols - 1
		case policy.OperandStage:
			return stageCol[in.Stage]
		}
		return -1 // f_one reads none
	}
	type stateKey struct {
		src int
		fam streaming.Family
	}
	stateOf := map[stateKey]int{}
	var collects []collect
	var pending *collect
	// ones: the operand is an f_one map's output, every value 1.
	ones := func(in policy.Operand) bool {
		return in.Kind == policy.OperandStage && plan.NIC.Stages[in.Stage].Op.MapF == policy.MapOne
	}
	// scratch counts the record words the maps keep; an op's last and
	// count are 1-based among them until the header is laid out below.
	// sharesTS: a map reads the previous cell's timestamp.
	scratch, sharesTS := 0, false
	for i, stage := range plan.NIC.Stages {
		op := stage.Op
		if op.Gran != g {
			continue
		}
		switch op.Kind {
		case policy.OpMap:
			// Every map writes a column of its own, so a column names
			// one definition and equal columns always carry equal values.
			ins := instruction{code: opcode(op.MapF), src: operand(stage.In), burstNS: op.BurstNS}
			ins.dst = numCols
			numCols++
			stageCol[i] = ins.dst
			// Modelled: a last-timestamp word each, and burst's counter.
			// Kept: an ipt's or burst's last input where it is not the
			// cell's timestamp, and burst's counter.
			switch op.MapF {
			case policy.MapIPT, policy.MapSpeed, policy.MapBurst:
				pr.numScratch++
				if op.MapF == policy.MapSpeed || stage.In.Kind == policy.OperandField && stage.In.Field == packet.FieldTimestamp {
					sharesTS = true
				} else {
					scratch++
					ins.last = scratch
				}
				if op.MapF == policy.MapBurst {
					pr.numScratch++
					scratch++
					ins.count = scratch
				}
			}
			pr.instrs = append(pr.instrs, ins)
		case policy.OpReduce:
			src := operand(stage.In)
			ins := instruction{code: opReduce, src: src, ops: 1,
				satLo: math.MinInt64, satHi: math.MaxInt64, fpMax: math.MaxInt64}
			if pending == nil {
				pending = &collect{}
			}
			for _, rf := range op.Reducers {
				k := stateKey{src, streaming.FamilyOf(rf.Func, rf.Params)}
				si, shared := stateOf[k]
				if !shared || naive {
					st := stateSpec{fn: rf.Func, params: rf.Params, src: src}
					var err error
					if naive {
						st.kern, err = streaming.NaiveKernel(rf.Func, rf.Params, &pr.logs)
					} else {
						st.kern, err = streaming.KernelFor(rf.Func, rf.Params, decay, &pr.logs)
					}
					if err != nil {
						return nil, fmt.Errorf("nicsim: reducer %s: %w", rf.Func, err)
					}
					if !naive && k.fam.Func == streaming.FSum && ones(stage.In) {
						st.kern = st.kern.OverOnes() // the cell count
					}
					for _, l := range st.kern.Lanes() {
						if !slices.Contains(pr.lanes, l) {
							pr.lanes = append(pr.lanes, l)
						}
					}
					si = len(pr.states)
					stateOf[k] = si
					pr.states = append(pr.states, st)
					ins.states = append(ins.states, si)
				}
				pr.states[si].views++
				pending.feats = append(pending.feats, feat{state: si, view: streaming.ViewOf(rf.Func, rf.Params)})
				ct := streaming.ContractFor(rf.Func, rf.Params)
				if ct.Clamps {
					if ct.InLo > ins.satLo {
						ins.satLo = ct.InLo
					}
					if ct.InHi < ins.satHi {
						ins.satHi = ct.InHi
					}
				}
				if ct.FixedPointMax < ins.fpMax {
					ins.fpMax = ct.FixedPointMax
				}
			}
			pr.instrs = append(pr.instrs, ins)
		case policy.OpSynthesize:
			if pending == nil {
				return nil, fmt.Errorf("nicsim: synthesize without pending reduce at %s", g)
			}
			pending.synth = append(pending.synth, op)
		case policy.OpCollect:
			if pending != nil {
				pending.perPacket = op.PerPacket
				collects = append(collects, *pending)
				pending = nil
			}
		}
	}
	if pending != nil {
		collects = append(collects, *pending)
	}
	// The read-out is the collects the runtime emits: a per-packet
	// policy's per-packet ones (Flush emits nothing), or every one.
	var at [][]feat
	at, pr.out.emits, pr.out.width = pr.place(collects, plan.Policy.PerPacket())
	pr.perPacket = plan.Policy.PerPacket() && pr.out.width > 0
	members := pr.fuseLanes(at)
	for j, m := range members {
		if len(at[m[0]]) == 0 {
			continue // no collect reads it
		}
		var views []streaming.View
		var pos []int
		for _, f := range at[m[0]] {
			views = append(views, f.view)
		}
		for _, si := range m { // lane by lane
			for _, f := range at[si] {
				pos = append(pos, f.pos)
			}
		}
		pr.out.reads = append(pr.out.reads, stateRead{state: j, plan: pr.states[j].kern.PlanRead(views, pos)})
	}
	if pr.perPacket {
		for i := range pr.out.reads {
			rd := &pr.out.reads[i]
			pr.states[rd.state].read = &rd.plan
		}
	}
	pr.env = make([]int64, numCols)
	pr.cols = make([]int64, numCols*runChunk)
	pr.nows = make([]int64, runChunk)
	// The header keeps a word only where something reads it; the scratch
	// words follow it and the states them, which are only counted once
	// every op has been seen.
	words := recHeader
	keep := func(read bool) int {
		if !read {
			return 0
		}
		words++
		return words - 1
	}
	pr.lastTS = keep(pr.isFG && !plan.Policy.PerPacket() || sharesTS)
	pr.clock = keep(len(pr.lanes) > 0 || naive && len(pr.states) > 0)
	for i := range pr.instrs {
		ins := &pr.instrs[i]
		if ins.last != 0 {
			ins.last += words - 1
		}
		if ins.count != 0 {
			ins.count += words - 1
		}
	}
	words += scratch
	for i := range pr.states {
		pr.states[i].off = words
		words += pr.states[i].kern.Words
	}
	pr.table = newGroupTable(words)
	return pr, nil
}

// collect is one collect op being compiled: the features it emits, in
// order, and the synthesize ops over them.
type collect struct {
	feats     []feat
	synth     []policy.Op
	perPacket bool
}

// feat is one emitted feature: the view of a state it reads, and where
// it lands in the read-out (place).
type feat struct {
	state int
	view  streaming.View
	pos   int
}

// place lays the features of the collects the runtime emits (perPacket:
// the per-packet ones, else the rest) out in one window, collect after
// collect, each view FeatureWidth values wide. It returns every state's
// features in window order, the collects' regions when one
// synthesizes, and the window's width.
func (pr *program) place(collects []collect, perPacket bool) (at [][]feat, emits []emitSpan, width int) {
	at = make([][]feat, len(pr.states))
	synth := false
	for _, c := range collects {
		if c.perPacket != perPacket {
			continue
		}
		lo := width
		for _, f := range c.feats {
			f.pos = width
			at[f.state] = append(at[f.state], f)
			width += streaming.FeatureWidth(f.view.Func, pr.states[f.state].params)
		}
		emits = append(emits, emitSpan{lo, width, c.synth})
		synth = synth || len(c.synth) > 0
	}
	if !synth {
		emits = nil
	}
	return at, emits, width
}

// fuseLanes merges the damped states of one source and kind (1D or 2D)
// that the read-out reads alike — at[si] are state si's features —
// into one state of one lane each (streaming.Fuse), at the first one's
// position, and rewrites the op table to match: a fused state is fed
// by the first reduce op that fed any of its lanes, and an op left
// feeding nothing is merged into an earlier one over its source with
// its input contracts, which then counts each input for both (maps
// write fresh columns and reduces none, so both read the same input).
// It returns each state's old positions, lane by lane.
func (pr *program) fuseLanes(at [][]feat) (members [][]int) {
	to := make([]int, len(pr.states))
	fuses := func(a, b int) bool {
		sa, sb := &pr.states[a], &pr.states[b]
		return sa.kern.Lanes() != nil && sb.kern.Lanes() != nil && sa.src == sb.src &&
			streaming.FamilyOf(sa.fn, sa.params).Func == streaming.FamilyOf(sb.fn, sb.params).Func &&
			slices.EqualFunc(at[a], at[b], func(x, y feat) bool { return x.view == y.view })
	}
	for si := range pr.states {
		j := slices.IndexFunc(members, func(m []int) bool { return fuses(m[0], si) })
		if j < 0 {
			j = len(members)
			members = append(members, nil)
		}
		to[si] = j
		members[j] = append(members[j], si)
	}
	states := make([]stateSpec, len(members))
	for j, m := range members {
		states[j] = pr.states[m[0]]
		if len(m) > 1 {
			ks := make([]streaming.Kernel, len(m))
			for i, si := range m {
				ks[i] = pr.states[si].kern
				if i > 0 {
					states[j].views += pr.states[si].views
				}
			}
			states[j].kern = streaming.Fuse(ks)
		}
	}
	pr.states = states
	fed := make([]bool, len(states))
	instrs := pr.instrs[:0]
	for _, ins := range pr.instrs {
		if ins.code == opReduce {
			feeds := ins.states[:0]
			for _, si := range ins.states {
				if j := to[si]; !fed[j] {
					fed[j] = true
					feeds = append(feeds, j)
				}
			}
			ins.states = feeds
			if len(feeds) == 0 {
				if k := slices.IndexFunc(instrs, func(o instruction) bool {
					return o.code == opReduce && o.src == ins.src && o.satLo == ins.satLo && o.satHi == ins.satHi && o.fpMax == ins.fpMax
				}); k >= 0 {
					instrs[k].ops += ins.ops
					continue
				}
			}
		}
		instrs = append(instrs, ins)
	}
	pr.instrs = instrs
	return members
}

// occupancy returns the live group count over all granularities.
func (r *Runtime) occupancy() (live int) {
	for _, pr := range r.programs {
		live += pr.table.n
	}
	return live
}

// Stats returns a copy of the runtime counters with the live-group
// count refreshed.
func (r *Runtime) Stats() RuntimeStats {
	s := r.stats
	s.GroupsLive = r.occupancy()
	return s
}

// StateBytes sums the live per-group reducer state — the Figure 15
// memory-consumption metric. It is the modelled footprint: 16 bytes a
// map scratch, and a state once per reduce spec that reads it
// (stateSpec.views) at what its reducer would report (Kernel.Bytes),
// whatever the record spends on it.
func (r *Runtime) StateBytes() int {
	total := 0
	for _, pr := range r.programs {
		total += pr.table.n * 16 * pr.numScratch
		for i := range pr.table.n {
			g := pr.table.at(i)
			for _, st := range pr.states {
				total += st.kern.Bytes(g[st.off:]) * st.views
			}
		}
	}
	return total
}

// Process consumes one switch→NIC message.
//
//superfe:hotpath
func (r *Runtime) Process(m gpv.Message) {
	r.stats.Msgs++
	switch {
	case m.FG != nil:
		r.syncFG(m.FG)
	case m.MGPV != nil:
		r.stats.MGPVs++
		r.processMGPV(m.MGPV)
	}
}

// syncFG installs one FG key table update (§5.1), growing the table
// to cover its index, and clears the index's group refs: the key they
// were resolved from is gone.
//
//superfe:coldpath
func (r *Runtime) syncFG(u *gpv.FGUpdate) {
	i, np := int(u.Index), len(r.programs)
	if i >= len(r.fgTable) {
		n := max(len(r.fgTable), fgTableMinSlots)
		for n <= i {
			n *= 2
		}
		table, refs := make([]fgSlot, n), make([]uint32, 2*n*np)
		copy(table, r.fgTable)
		copy(refs, r.fgRefs)
		r.fgTable, r.fgRefs = table, refs
	}
	r.fgTable[i] = fgSlot{key: u.Key, set: true}
	clear(r.fgRefs[2*i*np : 2*(i+1)*np])
	r.stats.FGUpdates++
}

// processMGPV traverses the vector's cells, splitting the CG batch
// back into every granularity of the chain via the FG keys (§5.1)
// and running the compiled stages: cell by cell, except that a program
// that runs (program.runs) takes every cell from the one its group
// resolves at as one run. A cell finds its groups through its FG
// index's refs (fgRefs); only an unset ref projects the FG key.
func (r *Runtime) processMGPV(v *gpv.MGPV) {
	// The MGPV carries the switch-computed CG hash (§6.2 hash reuse), so
	// the sampling decision matches the switch tracer's.
	if o := r.obs; o != nil && o.Tracer.Sampled(v.Hash) {
		o.Tracer.Record(obs.Event{Kind: obs.EvNICMerge, Key: v.CG, Clock: r.stats.Cells, Arg: int64(len(v.Cells))})
	}
	single, np := r.single, len(r.programs)
	// cg is a single-granularity chain's one group ref for the whole
	// MGPV, resolved by its first cell (0 until then, and again after a
	// failed admission, so the next cell retries).
	var cg uint32
	for ci := range v.Cells {
		cell := &v.Cells[ci]
		r.stats.Cells++
		r.decay.Reset()
		var refs []uint32
		if !single {
			i := int(cell.FGIndex)
			if i >= len(r.fgTable) || !r.fgTable[i].set {
				r.stats.UnknownFG++
				continue
			}
			o := 2 * i
			if cell.Forward {
				o++
			}
			refs = r.fgRefs[o*np : (o+1)*np]
		}
		perPacketVals := r.ppVals[:0]
		perPacketEmit := false
		var fgGroup record
		for pi, pr := range r.programs {
			var ref uint32
			var fwd bool
			if single {
				// Single-granularity chains ship no FG keys: the MGPV's
				// CG key IS the group key, and the cell's direction bit
				// is already relative to it. Re-deriving through KeyFor
				// would canonicalise an already-projected tuple — host
				// keys carry no DstIP, so min-folding them a second
				// time collapses every group to 0.0.0.0 and inverts
				// the direction bit.
				if cg == 0 {
					a, b := v.CG.Words()
					cg = r.resolve(pr, v.Hash, a, b, v.Hash)
				}
				ref, fwd = cg, cell.Forward
			} else {
				if refs[pi] == 0 {
					refs[pi] = r.project(pr, cell, v)
				}
				ref, fwd = refs[pi]&^refFwd, refs[pi]&refFwd != 0
			}
			if ref == 0 {
				continue // the admission failed: this granularity drops the cell
			}
			g := pr.table.at(int(ref - 1))
			if pr.runs {
				// The group holds from here on: this cell and the rest of
				// the MGPV are one run. Nothing in it reads the cell
				// counter, so it advances once.
				rest := v.Cells[ci:]
				r.stats.Cells += uint64(len(rest) - 1)
				for len(rest) > 0 {
					n := min(len(rest), runChunk)
					r.runSpan(pr, g, rest[:n])
					rest = rest[n:]
				}
				return
			}
			if pr.isFG {
				fgGroup = g
			}
			vals, emitted := r.runCell(pr, g, cell, fwd, perPacketVals)
			perPacketVals = vals
			perPacketEmit = perPacketEmit || emitted
		}
		if perPacketEmit {
			// The FG group's key is the cell's; without one (its
			// admission failed) the FG key is projected.
			fgKey := v.CG
			switch {
			case fgGroup != nil:
				fgKey = fgGroup.key()
			case !single:
				fgKey, _ = flowkey.KeyFor(r.plan.Switch.FG, r.cellTuple(cell))
			}
			// The MGPV's switch-computed CG hash scopes the tracer
			// sampling decision — no rehash on the emit path (§6.2).
			r.emitVector(fgKey, r.cellTimestamp(cell), perPacketVals, v.CG, v.Hash)
		}
		r.ppVals = perPacketVals[:0] // retain the backing array for the next cell
	}
}

// cellTuple reconstructs the packet's tuple orientation from the cell's
// FG key and direction bit.
func (r *Runtime) cellTuple(cell *gpv.Cell) flowkey.FiveTuple {
	t := r.fgTable[cell.FGIndex].key
	if !cell.Forward {
		t = t.Reverse()
	}
	return t
}

// project resolves a cell's group at pr's granularity from its FG key,
// for an FG index and orientation whose ref is unset, and returns the
// ref to keep: the group's, with refFwd when the cell runs forward
// relative to its key, or 0 when the admission failed.
func (r *Runtime) project(pr *program, cell *gpv.Cell, v *gpv.MGPV) uint32 {
	key, fwd := flowkey.KeyFor(pr.gran, r.cellTuple(cell))
	// The carried hash is HashKey(v.CG) (§6.2 hash reuse; core
	// quarantines frames where it is not). Any other key — a finer
	// granularity's, or a CG key re-derived from a misattributed FG
	// entry — is hashed here.
	h := v.Hash
	if key != v.CG {
		h = flowkey.HashKey(key)
	}
	a, b := key.Words()
	ref := r.resolve(pr, h, a, b, v.Hash)
	if ref != 0 && fwd {
		ref |= refFwd
	}
	return ref
}

// resolve returns the ref of pr's group for the key (a, b) hashed to h,
// admitting the group when the table holds none; 0 when the admission
// fails.
func (r *Runtime) resolve(pr *program, h uint32, a, b uint64, scope uint32) uint32 {
	if ref := pr.table.lookup(h, a, b); ref != 0 {
		return ref
	}
	// Transient EMEM allocation failure: group admission loses the
	// allocator race and this cell's contribution to this granularity
	// is dropped; the group's next cell retries the admission
	// naturally. Scoped by the MGPV's switch-computed CG hash, like the
	// wire faults.
	if r.inj.EMEMFail(scope) {
		r.stats.EMEMDrops++
		if n := r.stats.EMEMDrops; r.fr != nil && n&(n-1) == 0 {
			r.fr.Record(obs.Event{Kind: obs.FREMEMDrop, Clock: r.stats.Cells, Arg: int64(n)})
		}
		return 0
	}
	pr.table.insert(h, a, b)
	return uint32(pr.table.n)
}

// cellTimestamp extracts the timestamp metadata if batched, else 0.
func (r *Runtime) cellTimestamp(cell *gpv.Cell) int64 {
	if r.tsPos >= 0 {
		return int64(cell.Values[r.tsPos])
	}
	return 0
}

// col is column c over the run's first n cells.
func (pr *program) col(c, n int) []int64 { return pr.cols[c*runChunk : c*runChunk+n] }

// cellTime is a cell's time on its group's clock. Cells carry 32-bit
// nanosecond timestamps, which wrap every 4.29 s, so the clock is kept
// in 64 bits and a cell stands at the serial-number difference from
// it: less than 2.15 s ahead of the clock (mod 2³²) moves it forward,
// anything else is a reordered or duplicate cell, at or behind the
// clock, which decays nothing. A group's first cell starts the clock.
// The time's low 32 bits are the cell's timestamp.
func cellTime(first bool, clock int64, ts uint32) int64 {
	if first {
		return int64(ts)
	}
	return clock + int64(int32(ts-uint32(clock)))
}

// runCell executes one granularity's op table over one cell of group
// g, appending its read-out to dst when the program emits per packet.
// It returns the extended dst and whether it did.
//
// Every op below runs on every cell of the group, so one count and one
// clock serve them all: a scratch word or a state has been written
// exactly when the group has absorbed a cell, every state has seen as
// many samples as the group has cells (Step.N), and the damped states
// decay over the same interval. The maps over the previous cell's
// timestamp read it from the lastTS word before the op table, which
// writes it once, after. Each state observes the cell once, so
// a per-packet program reads each state out as it observes it
// (streaming.Kernel.ObserveRead), into the window grown before the op
// table: a damped state lane by lane, from the words just stored.
// Synthesis runs over the whole window afterwards.
//
//superfe:hotpath
func (r *Runtime) runCell(pr *program, g record, cell *gpv.Cell, fwd bool, dst []float64) ([]float64, bool) {
	env := pr.env
	for _, f := range pr.fields {
		env[f.col] = int64(cell.Values[f.pos])
	}
	ts := uint32(0)
	if r.tsPos >= 0 {
		ts = cell.Values[r.tsPos]
	}
	step := &pr.step
	n := g[recCells]
	first, clock, now := n == 0, int64(0), int64(ts)
	if pr.clock != 0 {
		clock = int64(g[pr.clock])
		now = cellTime(first, clock, ts)
	}
	clock = step.Begin(&r.decay, pr.lanes, n, clock, now)
	if pr.clock != 0 {
		g[pr.clock] = uint64(clock)
	}
	var prevTS uint64
	if pr.lastTS != 0 {
		prevTS = g[pr.lastTS]
	}
	start := len(dst)
	var win []float64
	if pr.perPacket {
		dst = slices.Grow(dst, pr.out.width)[:start+pr.out.width]
		win = dst[start:]
	}
	for i := range pr.instrs {
		ins := &pr.instrs[i]
		var x int64
		if ins.src >= 0 {
			x = env[ins.src]
		}
		var out int64
		switch ins.code {
		case opReduce:
			r.countInput(ins, x)
			for _, si := range ins.states {
				st := &pr.states[si]
				if st.read != nil {
					st.kern.ObserveRead(g[st.off:], x, step, win, st.read)
				} else {
					st.kern.Observe(g[st.off:], x, step)
				}
			}
			continue
		case opcode(policy.MapOne):
			out = 1
		case opcode(policy.MapIdentity):
			out = x
		case opcode(policy.MapDirection):
			out = direction(x, fwd)
		case opcode(policy.MapIPT):
			out = ipt(ins.from(g, prevTS), x, first)
			ins.keep(g, uint64(x))
		case opcode(policy.MapSpeed):
			out = speed(prevTS, x, ts, first)
		case opcode(policy.MapBurst):
			out = burst(&g[ins.count], ins.from(g, prevTS), x, first, ins.burstNS)
			ins.keep(g, uint64(x))
		}
		env[ins.dst] = out
	}
	g[recCells]++
	if pr.lastTS != 0 {
		g[pr.lastTS] = uint64(ts)
	}

	if !pr.perPacket {
		return dst, false
	}
	return pr.out.synthesize(dst, start), true
}

// runSpan executes one granularity's op table over a run of cells of
// group g (at most runChunk), for a program whose results cannot
// depend on where the cells were cut (program.runs): every cell is
// the group's, with its direction bit relative to the group's key;
// nothing is emitted per packet; no kernel reads the clock.
//
// The table runs op by op, each op over the run's column: a map fills
// its output column, a reduce feeds its whole input column to each
// state. Every state therefore sees its inputs in cell order, as
// runCell feeds them, and a map's scratch and the record's header are
// written once, at the end. Only the run's first cell can be the
// group's first.
//
//superfe:hotpath
func (r *Runtime) runSpan(pr *program, g record, cells []gpv.Cell) {
	n := len(cells)
	for _, f := range pr.fields {
		col := pr.col(f.col, n)
		for j := range cells {
			col[j] = int64(cells[j].Values[f.pos])
		}
	}
	// nows[j] is cell j's time: the cell's timestamp, unwrapped on the
	// group's clock where the program keeps one. Step.Begin starts the
	// first cell's step (without decay lanes, First is all a kernel
	// reads of it).
	nows := pr.nows[:n]
	step := &pr.step
	seen := g[recCells]
	first, clock := seen == 0, int64(0)
	if pr.clock != 0 {
		clock = int64(g[pr.clock])
	}
	var prevTS uint64
	if pr.lastTS != 0 {
		prevTS = g[pr.lastTS]
	}
	for j := range cells {
		ts := uint32(0)
		if r.tsPos >= 0 {
			ts = cells[j].Values[r.tsPos]
		}
		now := int64(ts)
		if pr.clock != 0 {
			now = cellTime(first && j == 0, clock, ts)
		}
		nows[j] = now
		if j == 0 {
			clock = step.Begin(&r.decay, pr.lanes, seen, clock, now)
		} else if now > clock {
			clock = now
		}
	}
	for i := range pr.instrs {
		ins := &pr.instrs[i]
		var src []int64
		if ins.src >= 0 {
			src = pr.col(ins.src, n)
		}
		if ins.code == opReduce {
			for _, x := range src {
				r.countInput(ins, x)
			}
			for _, si := range ins.states {
				st := &pr.states[si]
				st.kern.ObserveRun(g[st.off:], src, nows, step)
			}
			continue
		}
		out := pr.col(ins.dst, n)
		switch ins.code {
		case opcode(policy.MapOne):
			for j := range out {
				out[j] = 1
			}
		case opcode(policy.MapIdentity):
			copy(out, src)
		case opcode(policy.MapDirection):
			for j, x := range src {
				out[j] = direction(x, cells[j].Forward)
			}
		case opcode(policy.MapIPT):
			last := ins.from(g, prevTS)
			for j, x := range src {
				out[j] = ipt(last, x, j == 0 && first)
				last = uint64(x)
			}
			ins.keep(g, last)
		case opcode(policy.MapSpeed):
			last := prevTS
			for j, x := range src {
				ts := uint32(nows[j])
				out[j] = speed(last, x, ts, j == 0 && first)
				last = uint64(ts)
			}
		case opcode(policy.MapBurst):
			last, count := ins.from(g, prevTS), g[ins.count]
			for j, x := range src {
				out[j] = burst(&count, last, x, j == 0 && first, ins.burstNS)
				last = uint64(x)
			}
			ins.keep(g, last)
			g[ins.count] = count
		}
	}
	g[recCells] += uint64(n)
	if pr.lastTS != 0 {
		g[pr.lastTS] = uint64(uint32(nows[n-1]))
	}
	if pr.clock != 0 {
		g[pr.clock] = uint64(clock)
	}
}

// from is the previous cell's input of an ipt or burst op: its own
// word's, or the group's last timestamp prevTS where the op is over
// the cell's timestamp.
func (ins *instruction) from(g record, prevTS uint64) uint64 {
	if ins.last == 0 {
		return prevTS
	}
	return g[ins.last]
}

// keep stores an ipt's or burst's latest input in its own word. The
// shared last-timestamp word is written once a cell, after the op
// table, so no map sees another's store.
func (ins *instruction) keep(g record, x uint64) {
	if ins.last != 0 {
		g[ins.last] = x
	}
}

// The maps' arithmetic on one cell, which runCell and runSpan share.
// first: the cell is its group's first; last: the previous cell's
// input (from).

func direction(x int64, fwd bool) int64 {
	if !fwd {
		return -x
	}
	return x
}

// ipt is the gap to the previous cell's timestamp, a 32-bit wrapping
// difference matching the switch's 32-bit timestamp metadata.
func ipt(last uint64, cur int64, first bool) int64 {
	if first {
		return 0
	}
	return int64(uint32(cur) - uint32(last))
}

// speed is bytes per second since the previous cell, at last.
func speed(last uint64, size int64, ts uint32, first bool) int64 {
	var dt int64
	if !first {
		dt = int64(ts - uint32(last))
	}
	if dt > 0 {
		return size * 1e9 / dt
	}
	return 0
}

// burst numbers the cell's burst in count: a gap past gapNS from the
// last timestamp starts a new one.
func burst(count *uint64, last uint64, cur int64, first bool, gapNS int64) int64 {
	if first || int64(uint32(cur)-uint32(last)) > gapNS {
		*count++
	}
	return int64(*count)
}

// countInput is a reduce row's saturation accounting for one input,
// once for each reduce op it stands for,
// against the op's narrowest input contracts (counter-only; the states
// see the input unmodified). Order mirrors the contract semantics: an
// input already absorbed by a behavioural histogram clamp is not also a
// fixed-point saturation.
func (r *Runtime) countInput(ins *instruction, x int64) {
	if x < ins.satLo || x >= ins.satHi {
		r.stats.RangeClamps += uint64(ins.ops)
	} else if x > ins.fpMax || x < -ins.fpMax {
		r.stats.SatInputs += uint64(ins.ops)
	}
}

// read appends the program's read-out of group g to dst: the window
// grown once, every state's features written at their positions, then
// each collect's synthesize ops over its region.
func (pr *program) read(dst []float64, g record) []float64 {
	ro := &pr.out
	start := len(dst)
	dst = slices.Grow(dst, ro.width)[:start+ro.width]
	win := dst[start:]
	for i := range ro.reads {
		rd := &ro.reads[i]
		st := &pr.states[rd.state]
		st.kern.Read(win, g[st.off:], g[recCells], &rd.plan)
	}
	return ro.synthesize(dst, start)
}

// synthesize rewrites the window dst[start:] through each collect's
// synthesize ops over its region, when a collect synthesizes.
func (ro *readOut) synthesize(dst []float64, start int) []float64 {
	if ro.emits == nil {
		return dst
	}
	ro.raw = append(ro.raw[:0], dst[start:]...)
	dst = dst[:start]
	for _, em := range ro.emits {
		vals := ro.raw[em.lo:em.hi]
		for _, s := range em.synth {
			vals = s.Synthesize(vals)
		}
		dst = append(dst, vals...)
	}
	return dst
}

// emitVector hands a vector to the sink. cgKey/cgHash identify the
// flow's CG group for the tracer's vector-emit event and its sampling:
// the per-packet path passes the MGPV's switch-computed values straight
// through (§6.2 hash reuse); only the cold Flush path derives them by
// projection.
func (r *Runtime) emitVector(key flowkey.Key, ts int64, vals []float64, cgKey flowkey.Key, cgHash uint32) {
	r.stats.Vectors++
	if o := r.obs; o != nil {
		if t := o.Tracer; t != nil && t.Sampled(cgHash) {
			// Record under the CG key so the event joins the flow's
			// switch-side admit/evict events in one timeline.
			t.Record(obs.Event{Kind: obs.EvVectorEmit, Key: cgKey, Clock: r.stats.Cells, Arg: int64(len(vals))})
		}
	}
	r.sink(feature.Vector{Key: key, Timestamp: ts, Values: vals})
}

// Flush emits the per-group vectors of all finest-granularity groups
// (end-of-stream collection for per-group policies) in admission order,
// the order the groups got their records: a function of the shard's
// packet sequence, so CSV output, DeterministicMerge and the goldens
// are deterministic, and key order is one sort away. It walks the FG
// table's blocks once, reading each record where it lies. Coarser
// granularities contribute the features their collect ops selected,
// found in their own tables by projecting the group's key — probed only
// when the projection changes from the previous group's. Groups are
// kept, not retired: a second Flush emits them again.
func (r *Runtime) Flush() {
	if r.plan.Policy.PerPacket() {
		return // per-packet policies have already emitted everything
	}
	t := &r.fgProg.table
	// memo holds each coarser granularity's last group: consecutive FG
	// groups that share one probe its table once.
	memo := r.drainMemo
	clear(memo)
	for i := range t.n {
		g := t.at(i)
		key := g.key()
		vals := r.ppVals[:0]
		for pi, pr := range r.programs {
			pg := g
			if !pr.isFG {
				// The memo is a group of this table, so a key match is
				// the group; an absent group stays nil and is probed
				// again, and missed again.
				ck := flowkey.Project(pr.gran, key.Tuple)
				a, b := ck.Words()
				if pg = memo[pi]; pg == nil || pg[recKeyA] != a || pg[recKeyB] != b {
					pg = nil
					if ref := pr.table.lookup(flowkey.HashKey(ck), a, b); ref != 0 {
						pg = pr.table.at(int(ref - 1))
					}
					memo[pi] = pg
				}
				if pg == nil {
					continue
				}
			}
			vals = pr.read(vals, pg)
		}
		if len(vals) > 0 {
			// Only the tracer reads the CG identity; without telemetry
			// the projection and its hash are not computed.
			var cgKey flowkey.Key
			var cgHash uint32
			if r.obs != nil {
				cgKey = flowkey.Project(r.plan.Switch.CG, key.Tuple)
				cgHash = flowkey.HashKey(cgKey)
			}
			r.emitVector(key, int64(g[r.fgProg.lastTS]), vals, cgKey, cgHash)
		}
		r.ppVals = vals[:0] // retain the (possibly grown) backing array for the next group
	}
}
