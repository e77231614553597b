package switchsim

import (
	"fmt"

	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// GPVBank emulates the naïve single-granularity GPV approach of
// *Flow for a multi-granularity policy (§5.1: "one naïve approach is
// to allocate memory for each granularity respectively, which wastes
// a tremendous amount of switch memory"). It instantiates one
// independent GPV cache per granularity in the policy's chain; every
// packet is batched once per granularity, so both switch memory and
// switch→NIC bandwidth grow linearly with the number of
// granularities — the Figure 13 baseline.
type GPVBank struct {
	switches []*Switch
}

// NewGPVBank builds the per-granularity caches. Each granularity
// gets the full cfg allocation (its own short buffers, long buffers
// and — degenerately — no FG table, since CG == FG per cache).
func NewGPVBank(cfg Config, plan policy.SwitchPlan, sink func(gpv.Message)) (*GPVBank, error) {
	if len(plan.Chain) == 0 {
		return nil, fmt.Errorf("switchsim: empty granularity chain")
	}
	b := &GPVBank{}
	for _, g := range plan.Chain {
		sub := plan
		sub.CG, sub.FG = g, g
		sub.Chain = []flowkey.Granularity{g}
		sub.NeedsDirection = g.Directional()
		sw, err := New(cfg, sub, sink)
		if err != nil {
			return nil, err
		}
		b.switches = append(b.switches, sw)
	}
	return b, nil
}

// Process batches the packet in every per-granularity cache.
//
//superfe:hotpath
func (b *GPVBank) Process(p *packet.Packet) {
	for _, sw := range b.switches {
		sw.Process(p)
	}
}

// Flush drains all caches.
func (b *GPVBank) Flush() {
	for _, sw := range b.switches {
		sw.Flush()
	}
}

// Stats sums the per-granularity counters. BytesIn/PktsIn are taken
// from the first cache only (the raw traffic arrives once; the
// duplication is internal), while output-side counters accumulate —
// this matches how the paper charges the GPV baseline.
func (b *GPVBank) Stats() Stats {
	total := b.switches[0].Stats()
	for _, sw := range b.switches[1:] {
		s := sw.Stats()
		total.MsgsOut += s.MsgsOut
		total.BytesOut += s.BytesOut
		total.CellsOut += s.CellsOut
		total.FGUpdates += s.FGUpdates
		total.GroupsAdmitted += s.GroupsAdmitted
		total.LongBufGrants += s.LongBufGrants
		for i := range total.Evictions {
			total.Evictions[i] += s.Evictions[i]
		}
	}
	return total
}

// ConfiguredMemoryBytes sums the per-granularity memory — linear in
// the number of granularities, the Figure 13 effect.
func (b *GPVBank) ConfiguredMemoryBytes(cfg Config) int {
	total := 0
	for _, sw := range b.switches {
		total += ConfiguredMemoryBytes(cfg, sw.Plan())
	}
	return total
}
