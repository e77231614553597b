package planprove

import (
	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// Witness synthesis: turn a proved violation into a replayable packet
// sequence. The interpreter tracks, per reducer input, the chain of
// mapping functions back to a raw packet field (the "driver"); each
// driver kind knows how to realise a target value with one or two
// packets. Every synthesized packet must pass the plan's filter and
// all packets of one witness share a 5-tuple (so they land in one
// group and the per-group map scratch sees them in sequence); a
// witness whose driver cannot be realised (f_one, f_burst, mapped
// chains through tuple fields) stays unconfirmed — it documents the
// proved range violation without claiming a concrete trace.

type driverKind uint8

const (
	drvNone driverKind = iota
	// drvField: the input is a raw cell field; one packet with the
	// field set to the target value.
	drvField
	// drvIPT: the input is f_ipt over a field; two packets whose u32
	// field values differ by the target (mod 2^32).
	drvIPT
	// drvSpeed: the input is f_speed; two packets 1ns apart with the
	// size-source field s, producing s×1e9.
	drvSpeed
	// drvDirection: the input is f_direction over an inner driver;
	// the packet orientation picks the sign.
	drvDirection
)

type driver struct {
	kind  driverKind
	field packet.FieldName // drvField/drvIPT/drvSpeed source field
	inner *driver          // drvDirection
}

// driverFor follows a resolved operand to its driver: a batched field,
// or the map stage that computes it. An operand names an earlier stage,
// so the walk ends.
func (c *checker) driverFor(in policy.Operand) *driver {
	switch in.Kind {
	case policy.OperandField:
		return &driver{kind: drvField, field: in.Field}
	case policy.OperandStage:
		return c.mapDriver(c.plan.NIC.Stages[in.Stage])
	}
	return nil
}

func (c *checker) mapDriver(st policy.NICStage) *driver {
	switch st.Op.MapF {
	case policy.MapIdentity:
		return c.driverFor(st.In)
	case policy.MapDirection:
		d := c.driverFor(st.In)
		if !st.Op.Gran.Directional() {
			return d // pass-through at flow granularity
		}
		if d == nil {
			return nil
		}
		return &driver{kind: drvDirection, inner: d}
	case policy.MapIPT:
		if d := c.driverFor(st.In); d != nil && d.kind == drvField {
			return &driver{kind: drvIPT, field: d.field}
		}
	case policy.MapSpeed:
		if d := c.driverFor(st.In); d != nil && d.kind == drvField {
			return &driver{kind: drvSpeed, field: d.field}
		}
	}
	return nil // f_one, f_burst: value not a function of one packet
}

// witnessFor builds the witness for a violation: the driver should
// output need (or beyond it, away from zero — f_speed can only hit
// multiples of 1e9). The returned witness is never nil; Confirmed is
// set only when the synthesized packets verifiably pass the filter.
func (c *checker) witnessFor(g flowkey.Granularity, drv *driver, varName string, need, bound int64, in Interval) *Witness {
	w := &Witness{Var: varName, Value: need, Bound: bound, Input: in}
	if drv == nil || need == 0 {
		return w
	}
	pkts, achieved, ok := c.synth(g, drv, need)
	if !ok {
		return w
	}
	// achieved must be at least as violating as need.
	if (need > 0 && achieved < need) || (need < 0 && achieved > need) {
		return w
	}
	pred := c.plan.Switch.Pred
	for i := range pkts {
		if !pred.Eval(&pkts[i]) {
			return w // interval approximation picked a filtered value
		}
	}
	w.Value, w.Packets, w.Confirmed = achieved, pkts, true
	return w
}

// synth realises need through drv, returning the packet sequence and
// the value actually achieved.
func (c *checker) synth(g flowkey.Granularity, drv *driver, need int64) ([]packet.Packet, int64, bool) {
	switch drv.kind {
	case drvField:
		if !c.cellIv(drv.field).Contains(need) {
			return nil, 0, false
		}
		p := c.basePacket()
		if !setField(&p, drv.field, need) {
			return nil, 0, false
		}
		return []packet.Packet{p}, need, true

	case drvIPT:
		if need < 0 || need > u32max {
			return nil, 0, false
		}
		if drv.field == packet.FieldTimestamp {
			p0, p1 := c.basePacket(), c.basePacket()
			t0 := p0.Timestamp
			p1.Timestamp = t0 + need
			return []packet.Packet{p0, p1}, need, true
		}
		if tupleField(drv.field) {
			return nil, 0, false // constant within a group
		}
		iv := c.cellIv(drv.field)
		a := iv.Lo
		b := a + need
		if b > iv.Hi {
			// Wrap: b = (a + need) mod 2^32 from the top of the range.
			a = iv.Hi
			b = a + need - (u32max + 1)
			if !iv.Contains(b) {
				return nil, 0, false
			}
		}
		p0, p1 := c.basePacket(), c.basePacket()
		if !setField(&p0, drv.field, a) || !setField(&p1, drv.field, b) {
			return nil, 0, false
		}
		p1.Timestamp = p0.Timestamp + 1
		return []packet.Packet{p0, p1}, need, true

	case drvSpeed:
		if need <= 0 {
			return nil, 0, false // a negative speed needs a mapped-negative size source
		}
		// out = s×1e9/dt with dt = 1ns between the two packets.
		s := (need + 1e9 - 1) / 1e9
		iv := c.cellIv(drv.field)
		if s < iv.Lo {
			s = iv.Lo
		}
		if s > iv.Hi {
			return nil, 0, false
		}
		p0, p1 := c.basePacket(), c.basePacket()
		if !setField(&p0, drv.field, s) || !setField(&p1, drv.field, s) {
			return nil, 0, false
		}
		p1.Timestamp = p0.Timestamp + 1
		return []packet.Packet{p0, p1}, s * 1e9, true

	case drvDirection:
		mag, wantFwd := need, true
		if need < 0 {
			mag, wantFwd = -need, false
		}
		if drv.inner.kind == drvField && tupleField(drv.inner.field) {
			return nil, 0, false // reorienting would clobber the value
		}
		pkts, achieved, ok := c.synth(g, drv.inner, mag)
		if !ok || len(pkts) == 0 {
			return nil, 0, false
		}
		tuple, ok := c.orient(g, pkts, wantFwd)
		if !ok {
			return nil, 0, false
		}
		for i := range pkts {
			pkts[i].Tuple = tuple
		}
		if !wantFwd {
			achieved = -achieved
		}
		return pkts, achieved, true
	}
	return nil, 0, false
}

// orient finds a 5-tuple whose granularity-g direction flag matches
// wantFwd while every witness packet still passes the filter.
// Candidates: the base orientation, its full reverse, and an IP-only
// swap (flips host/channel direction without disturbing port
// predicates).
func (c *checker) orient(g flowkey.Granularity, pkts []packet.Packet, wantFwd bool) (flowkey.FiveTuple, bool) {
	base := pkts[0].Tuple
	ipSwap := base
	ipSwap.SrcIP, ipSwap.DstIP = base.DstIP, base.SrcIP
	pred := c.plan.Switch.Pred
	for _, t := range []flowkey.FiveTuple{base, base.Reverse(), ipSwap} {
		if _, fwd := flowkey.KeyFor(g, t); fwd != wantFwd {
			continue
		}
		ok := true
		for i := range pkts {
			q := pkts[i]
			q.Tuple = t
			if !pred.Eval(&q) {
				ok = false
				break
			}
		}
		if ok {
			return t, true
		}
	}
	return flowkey.FiveTuple{}, false
}

// basePacket builds a packet satisfying the proved field intervals:
// defaults nudged into each field's interval. Point constraints (Eq
// predicates) are hit exactly; hull-approximated Or constraints may
// still fail Eval, which witnessFor re-checks.
func (c *checker) basePacket() packet.Packet {
	pick := func(f packet.FieldName, def int64) int64 {
		iv := c.fieldIv[f]
		if def < iv.Lo {
			return iv.Lo
		}
		if def > iv.Hi {
			return iv.Hi
		}
		return def
	}
	return packet.Packet{
		Tuple: flowkey.FiveTuple{
			SrcIP:   uint32(pick(packet.FieldSrcIP, 0x0a000001)),
			DstIP:   uint32(pick(packet.FieldDstIP, 0x0a000002)),
			SrcPort: uint16(pick(packet.FieldSrcPort, 40001)),
			DstPort: uint16(pick(packet.FieldDstPort, 8443)),
			Proto:   flowkey.Proto(pick(packet.FieldProto, int64(flowkey.ProtoTCP))),
		},
		Timestamp: pick(packet.FieldTimestamp, 0),
		Size:      uint32(pick(packet.FieldSize, 600)),
		Flags:     packet.TCPFlags(pick(packet.FieldFlags, int64(packet.FlagACK))),
		TTL:       uint8(pick(packet.FieldTTL, 64)),
		Ingress:   uint16(pick(packet.FieldIngress, 1)),
	}
}

// tupleField reports whether f is part of the 5-tuple (constant
// within any one group, so a multi-packet driver cannot vary it).
func tupleField(f packet.FieldName) bool {
	switch f {
	case packet.FieldSrcIP, packet.FieldDstIP, packet.FieldSrcPort, packet.FieldDstPort, packet.FieldProto:
		return true
	}
	return false
}

// setField writes v into the packet field, reporting whether v fits
// the field's width.
func setField(p *packet.Packet, f packet.FieldName, v int64) bool {
	if v < 0 {
		return false
	}
	switch f {
	case packet.FieldSrcIP:
		if v > u32max {
			return false
		}
		p.Tuple.SrcIP = uint32(v)
	case packet.FieldDstIP:
		if v > u32max {
			return false
		}
		p.Tuple.DstIP = uint32(v)
	case packet.FieldSrcPort:
		if v > 1<<16-1 {
			return false
		}
		p.Tuple.SrcPort = uint16(v)
	case packet.FieldDstPort:
		if v > 1<<16-1 {
			return false
		}
		p.Tuple.DstPort = uint16(v)
	case packet.FieldProto:
		if v > 255 {
			return false
		}
		p.Tuple.Proto = flowkey.Proto(v)
	case packet.FieldFlags:
		if v > 63 {
			return false
		}
		p.Flags = packet.TCPFlags(v)
	case packet.FieldTTL:
		if v > 255 {
			return false
		}
		p.TTL = uint8(v)
	case packet.FieldSize:
		if v > u32max {
			return false
		}
		p.Size = uint32(v)
	case packet.FieldTimestamp:
		p.Timestamp = v
	case packet.FieldIngress:
		if v > 1<<16-1 {
			return false
		}
		p.Ingress = uint16(v)
	default:
		return false
	}
	return true
}
