// Package planprove statically verifies what a compiled plan
// *computes*, complementing planvet's resource feasibility checks: an
// abstract interpreter over the plan's per-granularity NIC programs
// proves value ranges for every mapped key and reducer input, and
// flags the places where a fixed-point dataplane implementation would
// clamp, saturate or wrap — u8/u16 MGPV cell registers, the 15-bit FG
// index of the wire cell header, histogram clamp ranges, and the
// 32-bit (16-bit damped) fixed-point reducer input lanes of the NIC's
// EMEM accumulators.
//
// The abstract domain is the interval lattice over int64
// (internal/planprove/interval.go), seeded per packet field from the
// plan's filter predicate and the fields' natural wire widths. The
// interpreter walks plan.NIC.Stages and follows each stage's resolved
// operand (policy.Operand), the same one the runtime compiles. The
// transfer functions mirror nicsim's map arithmetic (ipt, speed,
// burst, shared by its cell and run loops) instruction for
// instruction — f_ipt is a 32-bit wrapping difference, f_speed divides
// by a ≥1ns delta so its range is bounded by src×1e9, f_burst is an
// unbounded counter — so a proved range is an invariant of the
// simulator's concrete execution. Synthesize ops post-process emitted
// float vectors after reduction and cannot feed values back into
// cells or reducer inputs, so they need no transfer function.
//
// Every finding that rejects a plan carries a Witness: the concrete
// violating value, the violated bound, and — when the driving source
// allows it — a short packet sequence that replays to the violation
// on the simulators. The polgen differential harness cross-checks
// both directions: a plan proved clean must never trip the
// simulators' saturation counters, and a Confirmed witness must
// actually trip them when replayed (see internal/polgen).
//
//superfe:deterministic
package planprove

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
)

// Severity ranks a finding. Info findings document benign, designed
// behaviour (the 32-bit timestamp wrap); Warn findings mark lossy
// behavioural clamping (histogram tails); Error findings mark values
// a fixed-point dataplane could not represent at all.
type Severity uint8

// Severities, in increasing order.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("sev(%d)", uint8(s))
}

// MarshalJSON encodes the severity as its name, keeping the proof
// reports readable and the goldens self-describing.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding classes.
const (
	// ClassFilter: the filter predicate is unsatisfiable — no packet
	// reaches the dataplane, so every downstream range is vacuous.
	ClassFilter = "filter"
	// ClassHistRange: a histogram-family reducer input can leave the
	// clamp-free range [0, Bins×BinWidth); the tail clamps into the
	// last bin and negatives into bin 0 (see streaming.ContractFor).
	ClassHistRange = "hist-range"
	// ClassFixedPoint: a reducer input can exceed the fixed-point
	// input lane of a deployed dataplane implementation
	// (streaming.FixedPointInputMax / DampedFixedPointInputMax).
	ClassFixedPoint = "fixed-point"
	// ClassMapOverflow: a mapping function's int64 arithmetic can
	// overflow in the runtime itself.
	ClassMapOverflow = "map-overflow"
	// ClassCellRegister: a batched metadata field can exceed its MGPV
	// cell register width (switchsim.CellRegisterBits).
	ClassCellRegister = "cell-register"
	// ClassFGIndex: the FG key table is larger than the 15-bit index
	// space of the wire cell header.
	ClassFGIndex = "fg-index-width"
)

// Finding is one verification result.
type Finding struct {
	Plan    string   `json:"plan"`
	Class   string   `json:"class"`
	Sev     Severity `json:"sev"`
	Site    string   `json:"site"`
	Detail  string   `json:"detail"`
	Witness *Witness `json:"witness,omitempty"`
}

// String renders "plan: sev class site: detail".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s %s %s: %s", f.Plan, f.Sev, f.Class, f.Site, f.Detail)
}

// Witness is the concrete evidence attached to a rejecting finding:
// the violating value the abstract interpreter proved reachable, the
// bound it violates, and — when Confirmed — a packet sequence that
// replays to the violation on the simulators (all packets pass the
// plan's filter and land in one group, so the driving map/reduce
// chain produces Value on the last packet).
type Witness struct {
	// Var is the driving source (the reduce source key or cell slot).
	Var string `json:"var"`
	// Value violates Bound: |Value| > Bound for fixed-point findings,
	// Value outside [0, Bound) for histogram ranges.
	Value int64 `json:"value"`
	Bound int64 `json:"bound"`
	// Input is the proved interval of the driving source.
	Input Interval `json:"input"`
	// Confirmed reports that Packets replay to exactly Value; an
	// unconfirmed witness still documents the proved violation but
	// could not be realised as a concrete trace (e.g. f_burst counts,
	// which need an unbounded stream).
	Confirmed bool            `json:"confirmed"`
	Packets   []packet.Packet `json:"packets,omitempty"`
}

// String renders "var = value against bound b under var ∈ input
// (state)", the state saying whether the witness replays and on how
// many packets.
func (w *Witness) String() string {
	state := "unconfirmed"
	if w.Confirmed {
		state = fmt.Sprintf("replayable, %d packet(s)", len(w.Packets))
	}
	return fmt.Sprintf("%s = %d against bound %d under %s ∈ %s (%s)", w.Var, w.Value, w.Bound, w.Var, w.Input, state)
}

// SiteRange is one entry of the machine-readable proof report: the
// proved value interval of a mapped key or reducer input.
type SiteRange struct {
	Gran  string   `json:"gran"`
	Site  string   `json:"site"`
	Range Interval `json:"range"`
}

// Result is the per-plan proof report.
type Result struct {
	Plan     string      `json:"plan"`
	Findings []Finding   `json:"findings,omitempty"`
	Ranges   []SiteRange `json:"ranges,omitempty"`
}

// Clean reports whether the plan proved saturation-free: no finding
// at Warn or above. This is the verdict the polgen soundness
// cross-check holds against the simulators' saturation counters.
func (r *Result) Clean() bool {
	for _, f := range r.Findings {
		if f.Sev >= SevWarn {
			return false
		}
	}
	return true
}

// String renders the proof report for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	n := 0
	for _, f := range r.Findings {
		if f.Sev >= SevWarn {
			n++
		}
	}
	if n == 0 {
		fmt.Fprintf(&b, "prove %-12s PROVED (%d site(s))\n", r.Plan, len(r.Ranges))
	} else {
		fmt.Fprintf(&b, "prove %-12s UNSAFE (%d finding(s))\n", r.Plan, n)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %-5s %s %s: %s\n", f.Sev, f.Class, f.Site, f.Detail)
		if f.Witness != nil {
			fmt.Fprintf(&b, "        witness: %s\n", f.Witness)
		}
	}
	return b.String()
}

// Waiver suppresses a documented, accepted finding: the named plan is
// allowed findings of Class (optionally narrowed to one Site) for the
// stated Reason. Catalog applications carry waivers for ranges their
// operational envelope never reaches (e.g. inter-packet gaps past
// 2.1s saturating a fixed-point lane harmlessly).
type Waiver struct {
	Plan   string `json:"plan"`
	Class  string `json:"class"`
	Site   string `json:"site,omitempty"` // "" matches every site
	Reason string `json:"reason"`
}

// WaiverFor returns the waiver covering f, if any.
func WaiverFor(f Finding, ws []Waiver) (Waiver, bool) {
	for _, w := range ws {
		if w.Plan == f.Plan && w.Class == f.Class && (w.Site == "" || w.Site == f.Site) {
			return w, true
		}
	}
	return Waiver{}, false
}

// Unwaived returns the findings at Warn or above not covered by ws —
// the set a CI gate fails on.
func (r *Result) Unwaived(ws []Waiver) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev < SevWarn {
			continue
		}
		if _, ok := WaiverFor(f, ws); ok {
			continue
		}
		out = append(out, f)
	}
	return out
}

const u32max = int64(1)<<32 - 1

// checker carries one Check invocation's state.
type checker struct {
	sw   switchsim.Config
	plan *policy.Plan
	name string
	res  *Result
	// fieldIv is the proved per-field interval: the field's natural
	// wire range intersected with the filter predicate's constraints.
	fieldIv [packet.NumFields]Interval
}

// Check abstractly interprets the plan and returns its proof report.
// sw supplies the deployment parameters the proof depends on (the FG
// table size); name labels the findings.
func Check(sw switchsim.Config, name string, plan *policy.Plan) *Result {
	res := &Result{Plan: name}
	c := &checker{sw: sw, plan: plan, name: name, res: res}
	if !c.seedFields() {
		c.addf(ClassFilter, SevInfo, "filter", nil,
			"filter predicate is unsatisfiable: no packet reaches the dataplane, every downstream range is vacuously safe")
		return res
	}
	c.checkCells()
	c.checkFGIndex()
	ivs := make([]Interval, len(plan.NIC.Stages))
	for _, g := range plan.Switch.Chain {
		c.transfer(g, ivs)
	}
	// Deterministic report order regardless of traversal details.
	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Detail < b.Detail
	})
	// Collapse identical findings: reducers that differ only in a
	// parameter the contract ignores (the five damped-window decay
	// rates) prove the same violation at the same site.
	dst := res.Findings[:0]
	for _, f := range res.Findings {
		if n := len(dst); n > 0 && dst[n-1].Class == f.Class && dst[n-1].Site == f.Site && dst[n-1].Detail == f.Detail {
			continue
		}
		dst = append(dst, f)
	}
	res.Findings = dst
	return res
}

func (c *checker) addf(class string, sev Severity, site string, w *Witness, format string, args ...any) {
	c.res.Findings = append(c.res.Findings, Finding{
		Plan:    c.name,
		Class:   class,
		Sev:     sev,
		Site:    site,
		Detail:  fmt.Sprintf(format, args...),
		Witness: w,
	})
}

// naturalRange is the field's wire-format range: what any packet the
// simulators (or a real switch parser) can present. Size is bounded
// by the IPv4 total-length field (u16); flags by the six defined TCP
// flag bits.
func naturalRange(f packet.FieldName) Interval {
	switch f {
	case packet.FieldSrcIP, packet.FieldDstIP:
		return span(0, u32max)
	case packet.FieldSrcPort, packet.FieldDstPort, packet.FieldIngress, packet.FieldSize:
		return span(0, 1<<16-1)
	case packet.FieldProto, packet.FieldTTL:
		return span(0, 255)
	case packet.FieldFlags:
		return span(0, 63)
	case packet.FieldTimestamp:
		return span(0, math.MaxInt64)
	}
	return unbounded
}

// seedFields initialises the per-field intervals from the natural
// ranges and the filter predicate. It reports false when the
// predicate is unsatisfiable.
func (c *checker) seedFields() bool {
	for f := 0; f < packet.NumFields; f++ {
		c.fieldIv[f] = naturalRange(packet.FieldName(f))
	}
	cons, ok := predConstraints(c.plan.Switch.Pred, false)
	if !ok {
		return false
	}
	//superfe:unordered per-field intersection into an indexed array is independent per entry
	for f, iv := range cons {
		c.fieldIv[f] = c.fieldIv[f].Intersect(iv)
		if c.fieldIv[f].Empty() {
			return false
		}
	}
	return true
}

// predConstraints extracts per-field interval constraints from a
// predicate. neg interprets the predicate under an odd number of
// enclosing Nots (De Morgan push-down). The returned map is an
// over-approximation — a field absent from it is unconstrained, and
// Or-branches join by convex hull — which is the sound direction: the
// proved field ranges only ever shrink below the truth, never past
// it. ok=false means the predicate is provably unsatisfiable.
func predConstraints(p policy.Predicate, neg bool) (map[packet.FieldName]Interval, bool) {
	switch q := p.(type) {
	case policy.TruePred:
		if neg {
			return nil, false // Not(true) matches nothing
		}
		return nil, true
	case policy.FieldPred:
		iv, known, sat := fieldPredInterval(q, neg)
		if !sat {
			return nil, false
		}
		if !known {
			return nil, true
		}
		return map[packet.FieldName]Interval{q.Field: iv}, true
	case policy.NotPred:
		return predConstraints(q.P, !neg)
	case policy.AndPred:
		if neg {
			return disjoin(q.L, q.R, neg)
		}
		return conjoin(q.L, q.R, neg)
	case policy.OrPred:
		if neg {
			return conjoin(q.L, q.R, neg)
		}
		return disjoin(q.L, q.R, neg)
	}
	return nil, true // unknown predicate kind: no information, still sound
}

func fieldPredInterval(q policy.FieldPred, neg bool) (iv Interval, known, sat bool) {
	op := q.Op
	if neg {
		switch op {
		case policy.CmpEq:
			op = policy.CmpNe
		case policy.CmpNe:
			op = policy.CmpEq
		case policy.CmpLt:
			op = policy.CmpGe
		case policy.CmpLe:
			op = policy.CmpGt
		case policy.CmpGt:
			op = policy.CmpLe
		case policy.CmpGe:
			op = policy.CmpLt
		}
	}
	switch op {
	case policy.CmpEq:
		return point(q.Value), true, true
	case policy.CmpNe:
		// An interval cannot represent a punched hole; drop the
		// constraint (sound over-approximation).
		return unbounded, false, true
	case policy.CmpLt:
		if q.Value == math.MinInt64 {
			return Interval{}, false, false
		}
		return span(math.MinInt64, q.Value-1), true, true
	case policy.CmpLe:
		return span(math.MinInt64, q.Value), true, true
	case policy.CmpGt:
		if q.Value == math.MaxInt64 {
			return Interval{}, false, false
		}
		return span(q.Value+1, math.MaxInt64), true, true
	case policy.CmpGe:
		return span(q.Value, math.MaxInt64), true, true
	}
	return unbounded, false, true
}

func conjoin(l, r policy.Predicate, neg bool) (map[packet.FieldName]Interval, bool) {
	lm, ok := predConstraints(l, neg)
	if !ok {
		return nil, false
	}
	rm, ok := predConstraints(r, neg)
	if !ok {
		return nil, false
	}
	out := map[packet.FieldName]Interval{}
	//superfe:unordered copy into a fresh map is independent per entry
	for f, iv := range lm {
		out[f] = iv
	}
	//superfe:unordered interval intersection is commutative per field
	for f, iv := range rm {
		if have, ok := out[f]; ok {
			iv = have.Intersect(iv)
			if iv.Empty() {
				return nil, false
			}
		}
		out[f] = iv
	}
	return out, true
}

func disjoin(l, r policy.Predicate, neg bool) (map[packet.FieldName]Interval, bool) {
	lm, lok := predConstraints(l, neg)
	rm, rok := predConstraints(r, neg)
	if !lok && !rok {
		return nil, false
	}
	if !lok {
		return rm, true
	}
	if !rok {
		return lm, true
	}
	// Only fields constrained by BOTH branches stay constrained, by
	// the hull of the branch intervals.
	out := map[packet.FieldName]Interval{}
	//superfe:unordered per-field hull is independent per entry
	for f, liv := range lm {
		if riv, ok := rm[f]; ok {
			out[f] = liv.Hull(riv)
		}
	}
	return out, true
}

// cellIv is the interval of a field as the NIC sees it: MGPV cells
// store u32 values, so the 64-bit timestamp wraps modulo 2^32.
func (c *checker) cellIv(f packet.FieldName) Interval {
	iv := c.fieldIv[f]
	if iv.Lo < 0 || iv.Hi > u32max {
		return span(0, u32max)
	}
	return iv
}

// operandIv is the proved interval of a stage's resolved input: a
// batched field's cell interval, or an earlier map stage's output
// (ivs, indexed like plan.NIC.Stages).
func (c *checker) operandIv(ivs []Interval, in policy.Operand) Interval {
	switch in.Kind {
	case policy.OperandField:
		return c.cellIv(in.Field)
	case policy.OperandStage:
		return ivs[in.Stage]
	}
	return point(0) // OperandNone (f_one ignores its source)
}

// checkCells verifies each batched metadata field against its MGPV
// cell register width.
func (c *checker) checkCells() {
	for i, f := range c.plan.Switch.MetadataFields {
		bits := switchsim.CellRegisterBits(f)
		regMax := int64(1)<<uint(bits) - 1
		iv := c.fieldIv[f]
		site := fmt.Sprintf("cell[%d]=%s", i, f)
		if iv.Hi <= regMax {
			continue
		}
		if f == packet.FieldTimestamp {
			// The designed wrap: 64-bit timestamps ride a 32-bit
			// register; f_ipt's wrapping difference stays exact.
			c.addf(ClassCellRegister, SevInfo, site, nil,
				"cell %d batches the 64-bit timestamp into a 32-bit register: values wrap at 2^32 ns (designed; f_ipt differences stay exact across the wrap)", i)
			continue
		}
		need := regMax + 1
		if !iv.Contains(need) {
			need = iv.Hi
		}
		w := c.witnessFor(c.plan.Switch.CG, &driver{kind: drvField, field: f}, f.String(), need, regMax, iv)
		c.addf(ClassCellRegister, SevError, site, w,
			"cell %d (%s) can reach %d > %d under %s ∈ %s: the %d-bit cell register saturates", i, f, need, regMax, f, iv, bits)
	}
}

// checkFGIndex verifies the FG key table fits the 15-bit index space
// of the wire cell header (the 16th bit carries the direction flag).
// Single-granularity chains ship no FG indices at all.
func (c *checker) checkFGIndex() {
	if len(c.plan.Switch.Chain) <= 1 {
		return
	}
	size := c.sw.FGTableSize
	if size == 0 {
		size = switchsim.DefaultConfig().FGTableSize
	}
	if size <= switchsim.MaxWireFGIndex+1 {
		return
	}
	c.addf(ClassFGIndex, SevError, "fg-table", nil,
		"FG key table has %d entries but the wire cell header packs the FG index into 15 bits (+ direction flag): indices ≥ %d alias to other keys on the NIC", size, switchsim.MaxWireFGIndex+1)
}

// transfer abstractly executes the granularity-g stages of the NIC
// program, recording proved ranges and checking every reducer input.
// ivs[i] is map stage i's proved output, which the operands of later
// stages at g read.
func (c *checker) transfer(g flowkey.Granularity, ivs []Interval) {
	for i, st := range c.plan.NIC.Stages {
		op := st.Op
		if op.Gran != g {
			continue
		}
		in := c.operandIv(ivs, st.In)
		switch op.Kind {
		case policy.OpMap:
			ivs[i] = c.mapTransfer(g, op, in)
			c.res.Ranges = append(c.res.Ranges, SiteRange{
				Gran: g.String(), Site: op.Dst, Range: ivs[i],
			})
		case policy.OpReduce:
			c.res.Ranges = append(c.res.Ranges, SiteRange{
				Gran: g.String(), Site: "reduce(" + op.ReduceSrc + ")", Range: in,
			})
			c.checkReduce(g, op, in, c.driverFor(st.In))
		}
	}
}

// mapTransfer mirrors nicsim's map arithmetic on intervals: in is the
// map's input interval.
func (c *checker) mapTransfer(g flowkey.Granularity, op policy.Op, in Interval) Interval {
	switch op.MapF {
	case policy.MapOne:
		return point(1)
	case policy.MapIdentity:
		return in
	case policy.MapDirection:
		if g.Directional() {
			return in.Hull(in.Neg())
		}
		return in
	case policy.MapIPT:
		// 32-bit wrapping difference of successive u32 cell values:
		// any wrap yields the full unsigned range.
		return span(0, u32max)
	case policy.MapSpeed:
		// out = src×1e9/dt with dt ∈ [1, 2^32) when set, out = 0 on
		// the first cell or a non-positive delta.
		out, overflow := in.MulConst(1e9)
		if overflow {
			c.addf(ClassMapOverflow, SevError, fmt.Sprintf("%s@%s", op.Dst, g), nil,
				"f_speed multiplies %s by 1e9 and the product overflows int64: the runtime wraps where this analysis saturates", in)
		}
		return out.Hull(point(0))
	case policy.MapBurst:
		// A per-group burst counter: grows without bound over an
		// unbounded stream.
		return span(1, math.MaxInt64)
	}
	return unbounded
}

// checkReduce verifies op's input interval against every reducer's
// streaming.Contract, attaching witnesses to violations.
// drv drives the input (nil: no packet sequence realises it).
func (c *checker) checkReduce(g flowkey.Granularity, op policy.Op, in Interval, drv *driver) {
	for _, rf := range op.Reducers {
		ct := streaming.ContractFor(rf.Func, rf.Params)
		site := fmt.Sprintf("%s(%s)@%s", rf.Func, op.ReduceSrc, g)
		if ct.Clamps && ct.Bounded() {
			if in.Hi >= ct.InHi {
				need := ct.InHi
				if !in.Contains(need) {
					need = in.Lo // whole interval past the range
				}
				w := c.witnessFor(g, drv, op.ReduceSrc, need, ct.InHi, in)
				c.addf(ClassHistRange, SevWarn, site, w,
					"input %s ∈ %s can reach %d ≥ %d (= %d bins × %d width): the histogram clamps the tail into the last bin",
					op.ReduceSrc, in, w.Value, ct.InHi, rf.Params.Bins, rf.Params.BinWidth)
			}
			if in.Lo < ct.InLo {
				need := ct.InLo - 1
				if in.Hi < need {
					need = in.Hi
				}
				w := c.witnessFor(g, drv, op.ReduceSrc, need, ct.InLo, in)
				c.addf(ClassHistRange, SevWarn, site, w,
					"input %s ∈ %s can reach %d < %d: negative samples clamp into bin 0",
					op.ReduceSrc, in, w.Value, ct.InLo)
			}
		}
		// Fixed-point lane check on the clamp-free region only: the
		// runtime counts a saturating input only when the behavioural
		// clamp did not already absorb it (nicsim's else-if order).
		clip := in
		if ct.Clamps && ct.Bounded() {
			clip = in.Intersect(span(ct.InLo, ct.InHi-1))
		}
		if clip.Empty() {
			continue
		}
		if clip.Hi > ct.FixedPointMax || clip.Lo < -ct.FixedPointMax {
			var need int64
			if clip.Hi > ct.FixedPointMax {
				need = ct.FixedPointMax + 1
				if !clip.Contains(need) {
					need = clip.Lo
				}
			} else {
				need = -ct.FixedPointMax - 1
				if !clip.Contains(need) {
					need = clip.Hi
				}
			}
			lane := "32-bit"
			if ct.FixedPointMax == streaming.DampedFixedPointInputMax {
				lane = "packed 16-bit damped-window"
			}
			w := c.witnessFor(g, drv, op.ReduceSrc, need, ct.FixedPointMax, in)
			c.addf(ClassFixedPoint, SevError, site, w,
				"input %s ∈ %s can reach %d: |x| > %d saturates the %s fixed-point input lane",
				op.ReduceSrc, in, w.Value, ct.FixedPointMax, lane)
		}
	}
}
