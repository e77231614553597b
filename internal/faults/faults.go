// Package faults is SuperFE's deterministic fault-injection
// subsystem. A production extractor must survive corrupted frames,
// delivery loss and island stalls without poisoning unrelated flows'
// feature vectors; following the seeded simulator-level fault and
// differential testing approach of Wong et al. ("Testing Compilers
// for Programmable Switches Through Switch Hardware Simulation"),
// every fault here is drawn from a seeded PRNG so identical seeds
// reproduce identical fault sequences run-to-run, and a fault plan
// can be scoped to a CG-hash range so a differential test can prove
// flows outside the scope are bit-identical to a clean run.
//
// A Plan describes what to inject; an Injector (one per engine
// shard, seeded from the plan seed and the shard index) makes the
// per-opportunity decisions. Three independent PRNG streams — wire,
// switch, NIC — keep each fault category's sequence stable when the
// others are toggled.
//
// Besides the standard library the package imports only obs, for the
// Row type its counters are declared with, so every pipeline layer
// (core, switchsim, nicsim) can depend on it without cycles.
//
//superfe:deterministic
package faults

import (
	"fmt"
	"strings"

	"superfe/internal/obs"
)

// Kind identifies one fault class. The first five are wire-level
// faults on the switch→NIC path, applied per evicted MGPV frame; the
// next two strike the switch's recirculation/register machinery; the
// last two model FE-NIC hazards.
type Kind uint8

// Fault kinds.
const (
	KindDrop        Kind = iota // frame lost on the wire
	KindDup                     // frame delivered twice
	KindReorder                 // frame delayed within a bounded window
	KindCorrupt                 // random byte flips in the encoded frame
	KindTruncate                // frame cut short mid-encoding
	KindAgingStall              // recirculation stall postpones the aging scan
	KindSoftError               // register-array soft error (stale last-access)
	KindIslandStall             // NFP island busy for K cycles (delivery retries)
	KindEMEMFail                // transient EMEM allocation failure on group admit
	numKinds
)

// NumKinds is the number of defined fault kinds.
const NumKinds = int(numKinds)

// KindNone is the sentinel "no fault this opportunity" decision.
const KindNone Kind = 0xff

// String names the kind as the CLI spec and metric labels spell it.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindAgingStall:
		return "agingstall"
	case KindSoftError:
		return "softerror"
	case KindIslandStall:
		return "islandstall"
	case KindEMEMFail:
		return "ememfail"
	case KindNone:
		return "none"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Set is a bitmask of enabled fault kinds.
type Set uint16

// Has reports whether k is enabled.
func (s Set) Has(k Kind) bool { return k < numKinds && s&(1<<k) != 0 }

// With returns the set with k enabled.
func (s Set) With(k Kind) Set { return s | 1<<k }

// Predefined kind sets.
const (
	// WireKinds are the five switch→NIC path faults.
	WireKinds Set = 1<<KindDrop | 1<<KindDup | 1<<KindReorder | 1<<KindCorrupt | 1<<KindTruncate
	// SwitchKinds are the switch-side faults.
	SwitchKinds Set = 1<<KindAgingStall | 1<<KindSoftError
	// NICKinds are the NIC-side faults.
	NICKinds Set = 1<<KindIslandStall | 1<<KindEMEMFail
	// AllKinds enables everything.
	AllKinds Set = WireKinds | SwitchKinds | NICKinds
)

// String renders the set in CLI spec syntax (kind names joined by +).
func (s Set) String() string {
	var names []string
	for k := Kind(0); k < numKinds; k++ {
		if s.Has(k) {
			names = append(names, k.String())
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "+")
}

// Plan describes a deterministic fault campaign: the seed, the
// per-opportunity rate, which kinds to inject, and the CG-hash scope
// faults are confined to. The zero value is unusable; fill the seed
// and rate or use Parse. A zero scope, window or retry budget is
// normalised to the documented default by NewInjector.
type Plan struct {
	// Seed roots every injector PRNG. Identical seeds reproduce
	// identical fault sequences across runs (per shard, the streams
	// are seeded from Seed and the shard index).
	Seed int64
	// Rate is the per-opportunity fault probability in [0,1]: per
	// evicted frame for wire kinds, per aging-scan pass / scanned slot
	// for the switch kinds, per delivery attempt / group admission for
	// the NIC kinds.
	Rate float64
	// Kinds selects the fault classes to inject.
	Kinds Set
	// ScopeLo/ScopeHi bound the inclusive CG-hash range faults apply
	// to. Flow-scoped kinds (wire faults, soft errors, EMEM failures)
	// are injected only for groups hashing into the range, which is
	// what lets the differential tests prove fault isolation.
	// Island stalls and aging stalls are shard-wide hazards and
	// ignore the scope. Both zero means the full hash space.
	ScopeLo, ScopeHi uint32
	// ReorderWindow is how many subsequent frames a reordered frame
	// is delayed past (default 8).
	ReorderWindow int
	// MaxRetries bounds the deliver retry-with-backoff loop before a
	// frame is shed (default 3).
	MaxRetries int
}

// Fixed fault magnitudes. The island-stall cost lives with the
// pressure controller that charges it (core).
const (
	// corruptFlips is how many single-bit flips a corruption fault
	// applies to a frame.
	corruptFlips = 2
	// stallNS is the length of one recirculation stall in trace
	// nanoseconds.
	stallNS = 1_000_000
)

// normalised fills defaulted fields.
func (p Plan) normalised() Plan {
	if p.ScopeLo == 0 && p.ScopeHi == 0 {
		p.ScopeHi = ^uint32(0)
	}
	if p.ReorderWindow <= 0 {
		p.ReorderWindow = 8
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	return p
}

// Validate rejects malformed plans early, before deployment.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("faults: rate must be in [0,1], got %g", p.Rate)
	}
	if p.Kinds == 0 {
		return fmt.Errorf("faults: no fault kinds enabled")
	}
	if p.ScopeHi != 0 && p.ScopeLo > p.ScopeHi {
		return fmt.Errorf("faults: scope lo %#x > hi %#x", p.ScopeLo, p.ScopeHi)
	}
	return nil
}

// String renders the plan in the Parse syntax.
func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	n := p.normalised()
	s := fmt.Sprintf("seed=%d,rate=%g,kinds=%s,scope=%08x:%08x", n.Seed, n.Rate, n.Kinds, n.ScopeLo, n.ScopeHi)
	if p.ReorderWindow > 0 {
		s += fmt.Sprintf(",window=%d", p.ReorderWindow)
	}
	if p.MaxRetries > 0 {
		s += fmt.Sprintf(",retries=%d", p.MaxRetries)
	}
	return s
}

// Stats counts what an injector (or a merged set of shard injectors)
// actually did. All fields are monotonic counters.
type Stats struct {
	// Injected counts fault decisions by kind.
	Injected [NumKinds]uint64
	// Quarantined counts frames the delivery path rejected at decode
	// or integrity check — corrupted/truncated frames that were
	// counted and dropped instead of poisoning NIC state.
	Quarantined uint64
	// Retries and RetryDrops count the bounded deliver
	// retry-with-backoff loop: re-attempts taken, and frames shed
	// after the retry budget was exhausted.
	Retries    uint64
	RetryDrops uint64
	// DegradedTransitions counts degraded-mode enter+exit events.
	DegradedTransitions uint64
}

// Rows declares every counter once: its series and the word it lives
// in. Add, the shard registry's schema and the batch-boundary publish
// are all this list.
func (s *Stats) Rows() []obs.Row {
	rows := make([]obs.Row, 0, NumKinds+4)
	for k := range s.Injected {
		rows = append(rows, obs.Row{Name: "superfe_faults_injected_total", Help: "injected faults by kind",
			Labels: []obs.LabelPair{obs.L("kind", Kind(k).String())}, Word: &s.Injected[k]})
	}
	return append(rows,
		obs.Row{Name: "superfe_frames_quarantined_total", Help: "frames rejected at wire decode or key-hash integrity check", Word: &s.Quarantined},
		obs.Row{Name: "superfe_deliver_retries_total", Help: "delivery re-attempts after island stalls", Word: &s.Retries},
		obs.Row{Name: "superfe_deliver_retry_drops_total", Help: "frames shed after exhausting the deliver retry budget", Word: &s.RetryDrops},
		obs.Row{Name: "superfe_degraded_mode_transitions_total", Help: "degraded-mode enter and exit events", Word: &s.DegradedTransitions},
	)
}

// Add accumulates another injector's counters — merging per-shard
// fault stats for the parallel engine.
func (s *Stats) Add(o Stats) {
	obs.AddRows(s.Rows(), o.Rows())
}

// String renders a one-line summary, labelling kinds from
// Kind.String — the same labels the telemetry registry uses.
func (s Stats) String() string {
	var b strings.Builder
	b.WriteString("injected[")
	for k, n := range s.Injected {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Kind(k), n)
	}
	fmt.Fprintf(&b, "] quarantined=%d retries=%d retrydrops=%d degraded=%d",
		s.Quarantined, s.Retries, s.RetryDrops, s.DegradedTransitions)
	return b.String()
}

// rng is a splitmix64 stream: deterministic, allocation-free, and
// cheap enough for per-frame decisions. Never a wall clock, never
// the global rand — the //superfe:deterministic contract.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Injector makes the per-opportunity fault decisions for one engine
// shard. It is single-goroutine (owned by the shard worker, like the
// shard's switch and NIC) and all methods are nil-receiver-safe so
// engine code can call them unconditionally, mirroring the obs
// zero-value-handle convention.
type Injector struct {
	plan Plan
	// Independent decision streams per fault category: toggling the
	// switch kinds must not perturb the wire fault sequence.
	wire, sw, nic rng
	wireKinds     []Kind
	stats         Stats
}

// NewInjector builds the injector for one shard, deriving its PRNG
// streams from the plan seed and the shard index. A nil plan yields
// a nil injector (faults disabled).
func (p *Plan) NewInjector(shard int) *Injector {
	if p == nil {
		return nil
	}
	n := p.normalised()
	inj := &Injector{plan: n}
	// Seed the three streams with distinct odd-constant mixes so
	// shard 0's wire stream never aliases shard 1's switch stream.
	base := uint64(n.Seed)*0x9e3779b97f4a7c15 + uint64(shard)*0xbf58476d1ce4e5b9
	inj.wire = rng{state: base ^ 0x57495245} // "WIRE"
	inj.sw = rng{state: base ^ 0x53574954}   // "SWIT"
	inj.nic = rng{state: base ^ 0x4e494321}  // "NIC!"
	for k := Kind(0); k < numKinds; k++ {
		if WireKinds.Has(k) && n.Kinds.Has(k) {
			inj.wireKinds = append(inj.wireKinds, k)
		}
	}
	return inj
}

// Plan returns the injector's normalised plan (zero value when nil).
func (inj *Injector) Plan() Plan {
	if inj == nil {
		return Plan{}
	}
	return inj.plan
}

// Stats returns a copy of the injection counters (zero when nil).
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}

// Rows binds the injector's live counters. A nil injector's rows sit
// on words nothing increments: the series exist, at zero, with faults
// off, so every shard registers one schema.
func (inj *Injector) Rows() []obs.Row {
	if inj == nil {
		return new(Stats).Rows()
	}
	return inj.stats.Rows()
}

// InScope reports whether a CG hash falls inside the plan's fault
// scope. Nil injectors are never in scope.
func (inj *Injector) InScope(hash uint32) bool {
	return inj != nil && hash >= inj.plan.ScopeLo && hash <= inj.plan.ScopeHi
}

// WireKind decides the fault for one in-scope evicted frame:
// KindNone for a clean delivery, otherwise one of the enabled wire
// kinds, uniformly. Exactly the wire stream is consumed, and only
// for in-scope frames — out-of-scope traffic never advances it, so
// the fault sequence over the scoped flows is independent of the
// rest of the trace.
func (inj *Injector) WireKind() Kind {
	if inj == nil || len(inj.wireKinds) == 0 {
		return KindNone
	}
	if inj.wire.float64() >= inj.plan.Rate {
		return KindNone
	}
	k := inj.wireKinds[inj.wire.intn(len(inj.wireKinds))]
	inj.stats.Injected[k]++
	return k
}

// Corrupt applies corruptFlips bit flips to an encoded frame in
// place. Flips are XORs of a single bit, so a flip never leaves the
// byte unchanged.
func (inj *Injector) Corrupt(b []byte) {
	if inj == nil || len(b) == 0 {
		return
	}
	for i := 0; i < corruptFlips; i++ {
		b[inj.wire.intn(len(b))] ^= 1 << inj.wire.intn(8)
	}
}

// TruncateLen picks the cut point for a truncation fault: a uniform
// length in [0, n-1].
func (inj *Injector) TruncateLen(n int) int {
	if inj == nil || n <= 0 {
		return 0
	}
	return inj.wire.intn(n)
}

// AgingStall decides whether the due aging-scan pass stalls, and for
// how many trace nanoseconds. Shard-wide: ignores the scope.
func (inj *Injector) AgingStall() int64 {
	if inj == nil || !inj.plan.Kinds.Has(KindAgingStall) {
		return 0
	}
	if inj.sw.float64() >= inj.plan.Rate {
		return 0
	}
	inj.stats.Injected[KindAgingStall]++
	return stallNS
}

// SoftError decides whether the register array serving the given CG
// slot takes a soft error on this aging check. Flow-scoped.
func (inj *Injector) SoftError(hash uint32) bool {
	if inj == nil || !inj.plan.Kinds.Has(KindSoftError) || !inj.InScope(hash) {
		return false
	}
	if inj.sw.float64() >= inj.plan.Rate {
		return false
	}
	inj.stats.Injected[KindSoftError]++
	return true
}

// IslandBusy decides whether the target NFP island is stalled for
// this delivery attempt. Shard-wide: an island stall delays every
// flow mapped to the island, so the scope does not apply.
func (inj *Injector) IslandBusy() bool {
	if inj == nil || !inj.plan.Kinds.Has(KindIslandStall) {
		return false
	}
	if inj.nic.float64() >= inj.plan.Rate {
		return false
	}
	inj.stats.Injected[KindIslandStall]++
	return true
}

// EMEMFail decides whether a group admission hits a transient EMEM
// allocation failure. Flow-scoped; the cell is dropped and the next
// cell of the group retries naturally.
func (inj *Injector) EMEMFail(hash uint32) bool {
	if inj == nil || !inj.plan.Kinds.Has(KindEMEMFail) || !inj.InScope(hash) {
		return false
	}
	if inj.nic.float64() >= inj.plan.Rate {
		return false
	}
	inj.stats.Injected[KindEMEMFail]++
	return true
}

// CountQuarantined records one frame rejected at decode or integrity
// check.
func (inj *Injector) CountQuarantined() {
	if inj != nil {
		inj.stats.Quarantined++
	}
}

// CountRetry records one deliver re-attempt.
func (inj *Injector) CountRetry() {
	if inj != nil {
		inj.stats.Retries++
	}
}

// CountRetryDrop records one frame shed after the retry budget.
func (inj *Injector) CountRetryDrop() {
	if inj != nil {
		inj.stats.RetryDrops++
	}
}

// CountDegradedTransition records one degraded-mode enter or exit.
func (inj *Injector) CountDegradedTransition() {
	if inj != nil {
		inj.stats.DegradedTransitions++
	}
}
