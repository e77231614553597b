package policy

import (
	"fmt"
	"strings"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/streaming"
)

// Plan is the result of compiling a policy: the partition of its
// operators across FE-Switch and FE-NIC (§4.1 "Natural support to
// SuperFE architecture"). groupby and filter run on the switch;
// map, reduce, synthesize and collect run on the NIC.
type Plan struct {
	Policy *Policy
	Switch SwitchPlan
	NIC    NICPlan
}

// SwitchPlan is the switch half: the filter predicate (one
// match-action table), the granularity chain for MGPV, and the
// per-packet metadata fields the switch must batch into MGPV cells
// for the NIC's stages.
type SwitchPlan struct {
	// Pred is the conjunction of all filter operators (TruePred when
	// the policy has none).
	Pred Predicate
	// CG and FG bracket the granularity dependency chain (§5.1).
	CG flowkey.Granularity
	FG flowkey.Granularity
	// Chain is the full coarse→fine chain.
	Chain []flowkey.Granularity
	// MetadataFields lists the per-packet fields batched in each MGPV
	// cell, in cell layout order.
	MetadataFields []packet.FieldName
	// NeedsDirection reports whether cells carry the direction bit
	// (any directional granularity in the chain).
	NeedsDirection bool
}

// CellBytes returns the size of one MGPV packet-metadata cell: the
// batched fields (4 bytes each in the Tofino register layout), the
// 2-byte FG-key index, and a direction bit packed into the index's
// spare bits when needed.
func (s SwitchPlan) CellBytes() int {
	return 4*len(s.MetadataFields) + 2
}

// NICStage is one compiled stage of the NIC program: a map, reduce,
// synthesize or collect operator, in policy order.
type NICStage struct {
	Op Op
	// In is a map or reduce stage's input, resolved once by Build: the
	// runtime, the cost model and planprove read it, never a key name.
	In Operand
}

// Operand is a stage's resolved input (see resolve).
type Operand struct {
	Kind OperandKind
	// OperandField: the packet field and its position in
	// SwitchPlan.MetadataFields, the MGPV cell's Values.
	Field packet.FieldName
	Pos   int
	// OperandStage: the index in NICPlan.Stages of an earlier map stage
	// of the same granularity.
	Stage int
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OperandNone  OperandKind = iota // reads nothing (f_one)
	OperandField                    // a batched packet field
	OperandStage                    // an earlier map stage's output
)

// NICPlan is the SmartNIC half: the ordered map/reduce/synthesize/
// collect stages, plus the state layout the ILP placement consumes.
type NICPlan struct {
	Stages []NICStage
	// StateSpecs describes each piece of per-group state the stages
	// maintain: its size and access count per packet, the inputs to
	// the §6.2 placement ILP.
	StateSpecs []StateSpec
	// FeatureDim is the final vector dimension.
	FeatureDim int
}

// StateSpec describes one per-group state for the placement ILP
// (§6.2: "SuperFE analyzes each state s ∈ S to obtain its sizes b_s
// and access times t_s per packet").
type StateSpec struct {
	Name           string
	Bytes          int     // b_s
	AccessPerPkt   float64 // t_s
	Gran           flowkey.Granularity
	ReducerFunc    streaming.Func
	ReducerParams  streaming.Params
	FromSynthesize bool
}

// Compile partitions the policy across the switch and the NIC and
// derives the metadata layout and state inventory. Build has validated
// every operator, so only an empty Policy fails.
func Compile(p *Policy) (*Plan, error) {
	if p == nil || len(p.ops) == 0 {
		return nil, ErrEmptyPolicy
	}
	plan := &Plan{Policy: p}

	// --- Switch half -----------------------------------------------------
	var pred Predicate = TruePred{}
	havePred := false
	for _, op := range p.ops {
		if op.Kind == OpFilter {
			if !havePred {
				pred, havePred = op.Pred, true
			} else {
				pred = And(pred, op.Pred)
			}
		}
	}
	chain := p.Granularities()
	sw := SwitchPlan{
		Pred:  pred,
		Chain: chain,
		CG:    chain[0],
		FG:    chain[len(chain)-1],
	}
	for _, g := range chain {
		if g.Directional() {
			sw.NeedsDirection = true
		}
	}

	// --- NIC half ----------------------------------------------------------
	// One walk over the stages Build resolved derives the metadata
	// fields — every field an operand reads, plus the timestamp the
	// timed maps and reducers read besides — and the state inventory
	// for the ILP: one state per reducer at the granularity its reduce
	// operates within (op.Gran, stamped by Build), plus per-group map
	// scratch (e.g. last timestamp for f_ipt).
	nic := NICPlan{Stages: append([]NICStage(nil), p.stages...), FeatureDim: p.FeatureDim()}
	var need [packet.NumFields]bool
	for _, st := range nic.Stages {
		if st.In.Kind == OperandField {
			need[st.In.Field] = true
		}
		switch op := st.Op; op.Kind {
		case OpMap:
			switch op.MapF {
			case MapIPT, MapSpeed:
				need[packet.FieldTimestamp] = true
				nic.StateSpecs = append(nic.StateSpecs, StateSpec{
					Name: "last_tstamp/" + op.Dst, Bytes: 8, AccessPerPkt: 2, Gran: op.Gran,
				})
			case MapBurst:
				need[packet.FieldTimestamp] = true
				nic.StateSpecs = append(nic.StateSpecs, StateSpec{
					Name: "burst_state/" + op.Dst, Bytes: 12, AccessPerPkt: 2, Gran: op.Gran,
				})
			}
		case OpReduce:
			for _, rf := range op.Reducers {
				if streaming.IsTimed(rf.Func) {
					need[packet.FieldTimestamp] = true
				}
				nic.StateSpecs = append(nic.StateSpecs, StateSpec{
					Name:          fmt.Sprintf("%s(%s)@%s", rf.Func, op.ReduceSrc, op.Gran),
					Bytes:         streaming.ProvisionedBytes(rf.Func, rf.Params),
					AccessPerPkt:  accessCost(rf.Func),
					Gran:          op.Gran,
					ReducerFunc:   rf.Func,
					ReducerParams: rf.Params,
				})
			}
		}
	}
	// The cell lays the fields out in field order; each field operand
	// records its position.
	var pos [packet.NumFields]int
	for f := packet.FieldName(0); int(f) < packet.NumFields; f++ {
		if need[f] {
			pos[f] = len(sw.MetadataFields)
			sw.MetadataFields = append(sw.MetadataFields, f)
		}
	}
	for i := range nic.Stages {
		if in := &nic.Stages[i].In; in.Kind == OperandField {
			in.Pos = pos[in.Field]
		}
	}
	plan.Switch = sw
	plan.NIC = nic
	return plan, nil
}

// accessCost estimates memory accesses per packet for each reducing
// function (read-modify-write of its state, more for multi-word
// states).
func accessCost(f streaming.Func) float64 {
	switch f {
	case streaming.FSum, streaming.FMax, streaming.FMin:
		return 1
	case streaming.FMean, streaming.FVar, streaming.FStd:
		return 2
	case streaming.FSkew, streaming.FKurtosis:
		return 3
	case streaming.FCard:
		return 1
	case streaming.FArray:
		return 1
	case streaming.FHist, streaming.FPDF, streaming.FCDF, streaming.FPercent:
		return 1
	case streaming.FMag, streaming.FRadius, streaming.FCov, streaming.FPCC:
		return 3
	case streaming.FDWeight, streaming.FDMean, streaming.FDStd:
		return 2
	case streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return 3
	}
	return 1
}

// BuiltinField resolves the built-in source names to packet fields.
// Only policy's one resolution rule (resolve) and the independent
// oracle (baseline) read a key by name; everything downstream reads
// NICStage.In.
func BuiltinField(k string) (packet.FieldName, bool) {
	switch k {
	case "size":
		return packet.FieldSize, true
	case "tstamp":
		return packet.FieldTimestamp, true
	case "ip.ttl":
		return packet.FieldTTL, true
	case "tcp.flags":
		return packet.FieldFlags, true
	case "ip.src":
		return packet.FieldSrcIP, true
	case "ip.dst":
		return packet.FieldDstIP, true
	case "port.src":
		return packet.FieldSrcPort, true
	case "port.dst":
		return packet.FieldDstPort, true
	}
	return 0, false
}

// P4Listing renders a human-readable pseudo-P4 program for the switch
// plan, standing in for the P4-16 code generation of the paper's
// policy engine (§7). It is informational only; the switch simulator
// consumes the SwitchPlan struct directly.
func (plan *Plan) P4Listing() string {
	var b strings.Builder
	sw := plan.Switch
	fmt.Fprintf(&b, "// FE-Switch program for policy %q (generated)\n", plan.Policy.Name())
	fmt.Fprintf(&b, "parser { ethernet -> ipv4 -> {tcp, udp} }\n")
	fmt.Fprintf(&b, "table filter_t { key = {match fields}; rules = %d; predicate = %s }\n",
		sw.Pred.Rules(), sw.Pred)
	fmt.Fprintf(&b, "control MGPV {\n")
	fmt.Fprintf(&b, "  cg_key   = %s;\n", sw.CG)
	fmt.Fprintf(&b, "  fg_key   = %s;\n", sw.FG)
	fmt.Fprintf(&b, "  cell     = {")
	for i, f := range sw.MetadataFields {
		if i > 0 {
			fmt.Fprint(&b, ", ")
		}
		fmt.Fprint(&b, f)
	}
	fmt.Fprintf(&b, ", fg_index")
	if sw.NeedsDirection {
		fmt.Fprintf(&b, ", direction")
	}
	fmt.Fprintf(&b, "}; // %d bytes\n", sw.CellBytes())
	fmt.Fprintf(&b, "  short_buffers / long_buffer_stack / fg_key_table / aging;\n}\n")
	return b.String()
}

// MicroCListing renders a human-readable pseudo-Micro-C program for
// the NIC plan.
func (plan *Plan) MicroCListing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// FE-NIC program for policy %q (generated)\n", plan.Policy.Name())
	fmt.Fprintf(&b, "for each MGPV cell {\n")
	for _, st := range plan.NIC.Stages {
		fmt.Fprintf(&b, "  %s;\n", strings.TrimPrefix(st.Op.String(), "."))
	}
	fmt.Fprintf(&b, "}\n// states: %d, feature dim: %d\n", len(plan.NIC.StateSpecs), plan.NIC.FeatureDim)
	return b.String()
}
