// Package switchsim simulates SuperFE's FE-Switch: the P4 program the
// policy engine deploys on an Intel Tofino to batch feature metadata
// (§5 of the paper). The simulator reproduces, per packet, the full
// MGPV cache behaviour:
//
//   - a single match-action filter table (the compiled policy filter);
//   - grouping at the coarsest granularity (CG) with one short buffer
//     per group slot and a stack of larger long buffers for long
//     flows (§5.2 "Memory allocation");
//   - the deduplicated finest-granularity (FG) key table synchronised
//     to the NIC with FGUpdate messages (§5.1);
//   - the three eviction causes — hash collision, buffer full, and
//     aging timeout — with the recirculation-driven aging scan
//     (§5.2 "MGPV eviction", "Aging mechanism");
//   - byte-exact accounting of the MGPV traffic on the switch→NIC
//     channel, for the Figure 12 aggregation-ratio experiment;
//   - a Tofino resource model (tables, stateful ALUs, SRAM) for the
//     Table 4 utilization experiment.
//
// This package substitutes for the ~2K lines of P4-16 plus ~4K lines
// of control-plane C of the paper's prototype (§7); see DESIGN.md for
// why the substitution preserves the evaluated behaviour.
//
//superfe:deterministic
package switchsim

import (
	"fmt"
	"math"

	"superfe/internal/faults"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// Config sizes the MGPV cache. The zero value is unusable; use
// DefaultConfig for the paper's prototype parameters (§7: short
// buffers 4×16384, long buffers 20×4096, FG table 16384).
type Config struct {
	ShortBufCells int   // cells per short buffer
	NumShort      int   // number of short buffers (= CG group slots)
	LongBufCells  int   // cells per long buffer
	NumLong       int   // number of long buffers on the stack
	FGTableSize   int   // FG key table entries
	AgingT        int64 // ns; 0 disables the aging mechanism
	// AgingScanNS is the time between successive cache-entry checks
	// by the recirculated aging packets. The paper keeps the scan
	// entirely in the data plane "at a high frequency"; the default
	// visits all 16384 entries in ~1.6ms.
	AgingScanNS int64
	// ZeroCopy lends evicted messages instead of copying them out:
	// an MGPV's cells are a per-switch scratch whose Values alias the
	// register arrays, and an FGUpdate is a per-switch scratch too, so
	// the per-packet path allocates nothing. Messages handed to the
	// sink (and the cell Values they reference) are then only valid for
	// the duration of the sink call: a sink that retains or forwards
	// them asynchronously must deep-copy first. The core engines enable
	// this — their deliver path consumes each message synchronously —
	// while direct users of the simulator keep the default
	// copy-on-evict behaviour (one cells slice and one values slice per
	// evicted MGPV).
	ZeroCopy bool
	// Obs, when non-nil, is the shard's telemetry: New registers the
	// switch's series in its still-open registry — a counter per
	// Stats.Rows row, the occupancy gauges, the cells-per-MGPV
	// histogram — and sampled flow-lifecycle events go to its tracer.
	// All hooks are allocation-free; nil keeps the hot path
	// byte-identical to an uninstrumented switch.
	Obs *obs.Pipeline
	// Faults, when non-nil, injects the switch-side fault kinds
	// (recirculation stalls that postpone the aging scan,
	// register-array soft errors that spoil a slot's last-access
	// timestamp). The injector is owned by the shard; nil disables
	// injection with no hot-path cost.
	Faults *faults.Injector
	// FlightRec, when non-nil, receives degraded-mode shed events
	// (coalesced exponentially: the 1st, 2nd, 4th, 8th... shed cell,
	// so a long shedding episode cannot flood the bounded ring). The
	// ring must be owned by the goroutine driving this switch.
	FlightRec *obs.Ring[obs.Event]
}

// DefaultConfig returns the prototype parameters from §7.
func DefaultConfig() Config {
	return Config{
		ShortBufCells: 4,
		NumShort:      16384,
		LongBufCells:  20,
		NumLong:       4096,
		FGTableSize:   16384,
		AgingT:        0, // disabled unless the experiment sets it
		AgingScanNS:   100,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ShortBufCells <= 0 || c.NumShort <= 0 {
		return fmt.Errorf("switchsim: short buffers misconfigured (%d cells × %d)", c.ShortBufCells, c.NumShort)
	}
	if c.LongBufCells < 0 || c.NumLong < 0 {
		return fmt.Errorf("switchsim: long buffers misconfigured (%d cells × %d)", c.LongBufCells, c.NumLong)
	}
	if c.FGTableSize <= 0 {
		return fmt.Errorf("switchsim: FG table size must be positive, got %d", c.FGTableSize)
	}
	if c.AgingT > 0 && c.AgingScanNS <= 0 {
		return fmt.Errorf("switchsim: aging enabled but scan interval is %d", c.AgingScanNS)
	}
	if c.ShortBufCells > maxShortBufCells {
		return fmt.Errorf("switchsim: %d cells per short buffer exceed the slot's 8-bit fill register (at most %d)", c.ShortBufCells, maxShortBufCells)
	}
	if c.NumLong > maxLongBufs {
		return fmt.Errorf("switchsim: %d long buffers exceed the slot's 16-bit long-buffer index (at most %d)", c.NumLong, maxLongBufs)
	}
	return nil
}

// The slot's register widths bound the geometry Validate accepts: the
// short buffer's fill is an 8-bit register, the long-buffer index a
// 16-bit one with -1 for none.
const (
	maxShortBufCells = math.MaxUint8
	maxLongBufs      = math.MaxInt16
)

// slot is one CG group entry, 32 bytes at register width: the group's
// key as its two words (flowkey.Key.Words), the fill of its short buffer
// (slot i's cells are shortBuf's cells i·ShortBufCells onward) and an
// optional long buffer reference. Two slots share a cache line and
// none straddles two.
type slot struct {
	keyA, keyB uint64
	lastAccess int64
	hash       uint32
	longIdx    int16 // -1 when the group owns no long buffer
	nshort     uint8 // cells in the short buffer
	occupied   bool
}

// key rebuilds the slot's group key.
func (sl *slot) key() flowkey.Key { return flowkey.FromWords(sl.keyA, sl.keyB) }

// fgEntry is one FG key table entry.
type fgEntry struct {
	occupied bool
	key      flowkey.FiveTuple
}

// Switch is the FE-Switch instance for one compiled policy.
type Switch struct {
	cfg  Config
	plan policy.SwitchPlan

	slots []slot
	stack []int16 // free long-buffer indices
	// fgTable is the FG key table; nil for a single-granularity plan,
	// which never indexes one (singleGran).
	fgTable []fgEntry

	// The short and long buffers as the Tofino holds them: register
	// arrays of fixed-width cells, sized once at deploy. A cell is
	// nvals+1 words — the metadata values, then FGIndex | Forward<<16.
	// Long buffer j's cells are longBuf's cells j·LongBufCells onward
	// and longLen[j] of them are filled.
	shortBuf []uint32
	longBuf  []uint32
	longLen  []int32

	out  func(gpv.Message)
	now  int64
	enc  []byte // scratch encode buffer
	stat Stats
	obs  *obs.Pipeline

	// Batch-granular telemetry publishing: the hot path only mutates
	// the plain stat struct (plus the occupancy shadows and the staged
	// histogram below); publishObs pushes what stat's rows gained into
	// the registry once per columnar batch. Scrapers see batch-granular
	// values — snapshots are taken at barriers, i.e. batch boundaries,
	// so they never observe a batch mid-step.
	pub           obs.Bound
	occSlots      int64 // shadow of occupiedSlots
	longGrant     int64 // shadow of longGranted
	occupiedSlots obs.Gauge
	longGranted   obs.Gauge
	cellsPerMsg   obs.HistStage

	// Hot-path scratch: the evict* and fgScratch fields back the
	// borrowed messages emitted in ZeroCopy mode.
	nvals      int
	one        *Columns // Process's one-row batch
	evictCells []gpv.Cell
	evictMGPV  gpv.MGPV
	fgScratch  gpv.FGUpdate

	// Aging scan state (the recirculated internal packets).
	agingCursor int
	agingNext   int64

	// Fault injection + graceful degradation. inj is the shard's
	// injector (nil when faults are disabled); degraded is set by the
	// engine's pressure controller and makes appendCell shed
	// long-buffer work while keeping short-buffer extraction. fr
	// records shed events into the always-on flight recorder.
	inj      *faults.Injector
	degraded bool
	fr       *obs.Ring[obs.Event]

	// singleGran is set when the switch emulates a plain GPV cache
	// for one granularity (the Figure 13 baseline): the FG table is
	// not used and cells carry no FG index.
	singleGran bool

	// narrowSlots precomputes the sub-32-bit register checks for the
	// cell layout (see registers.go); groupCell walks it to maintain
	// the CellSaturations counter.
	narrowSlots []narrowSlot
}

// New creates a switch running the given compiled switch plan. The
// sink receives every MGPV eviction and FG table update in order.
func New(cfg Config, plan policy.SwitchPlan, sink func(gpv.Message)) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("switchsim: nil sink")
	}
	nvals := len(plan.MetadataFields)
	s := &Switch{
		cfg:        cfg,
		plan:       plan,
		slots:      make([]slot, cfg.NumShort),
		stack:      make([]int16, 0, cfg.NumLong),
		shortBuf:   make([]uint32, cfg.NumShort*cfg.ShortBufCells*(nvals+1)),
		longBuf:    make([]uint32, cfg.NumLong*cfg.LongBufCells*(nvals+1)),
		longLen:    make([]int32, cfg.NumLong),
		nvals:      nvals,
		one:        NewColumns(1, nvals),
		evictCells: make([]gpv.Cell, 0, cfg.ShortBufCells+cfg.LongBufCells),
		out:        sink,
		obs:        cfg.Obs,
		inj:        cfg.Faults,
		fr:         cfg.FlightRec,
	}
	for i := range s.slots {
		s.slots[i].longIdx = -1
	}
	for i := cfg.NumLong - 1; i >= 0; i-- {
		s.stack = append(s.stack, int16(i))
	}
	// Single-granularity fast path: when CG == FG the FG table is
	// pure overhead (every cell's FG key equals the group key), so
	// the compiled program omits it — this also serves as the plain
	// GPV emulation for Figure 13.
	s.singleGran = plan.CG == plan.FG && len(plan.Chain) == 1
	if !s.singleGran {
		s.fgTable = make([]fgEntry, cfg.FGTableSize)
	}
	s.narrowSlots = narrowSlotsFor(plan.MetadataFields)
	if s.obs != nil {
		r := s.obs.Registry
		s.pub = r.Bind(s.stat.Rows())
		s.occupiedSlots = r.Gauge("superfe_switch_occupied_slots", "CG cache slots currently occupied")
		s.longGranted = r.Gauge("superfe_switch_long_bufs_granted", "long buffers currently granted")
		// 1, 3, 7, ..., 255 cells: fine near zero where batch sizes
		// concentrate, a long tail still covered.
		s.cellsPerMsg = r.Histogram("superfe_switch_cells_per_msg", "cells batched per evicted MGPV message",
			obs.GeometricEdges(1, 2, 8)).Stage()
	}
	return s, nil
}

// publishObs pushes what the counters gained since the last publish
// into the registry, refreshes the occupancy gauges from their shadows
// and flushes the staged cells-per-MGPV histogram. Called once per
// columnar batch — keeping every lock-prefixed instruction off the
// per-event hot path.
func (s *Switch) publishObs() {
	if s.obs == nil {
		return
	}
	s.pub.Publish()
	s.occupiedSlots.Set(s.occSlots)
	s.longGranted.Set(s.longGrant)
	s.cellsPerMsg.Flush()
}

// Stats returns a copy of the switch counters.
func (s *Switch) Stats() Stats { return s.stat }

// SetDegraded switches degraded mode on or off. While degraded the
// switch stops granting long buffers and sheds cells that would need
// one — keeping short-buffer extraction (the first ShortBufCells
// cells of every group, which carry the paper's short-flow features)
// while abandoning the long tail that drives NIC pressure. The
// engine's pressure controller calls this; it is not a packet-path
// operation.
func (s *Switch) SetDegraded(on bool) { s.degraded = on }

// Plan returns the switch plan in force.
func (s *Switch) Plan() policy.SwitchPlan { return s.plan }

// Process runs one packet through the pipeline and returns whether the
// filter selected it. It is the per-packet adapter over ProcessColumns
// (the one row loop) for callers that drive a bare switch — the
// harness figures, GPVBank, tests: the packet becomes a one-row batch.
//
//superfe:hotpath
func (s *Switch) Process(p *packet.Packet) bool {
	key, _ := flowkey.KeyFor(s.plan.CG, p.Tuple)
	pass := s.plan.Pred.Eval(p)
	s.one.N = 0
	s.one.Append(p, key, flowkey.HashKey(key), pass, s.plan.MetadataFields)
	s.ProcessColumns(s.one)
	return pass
}

// groupCell batches one cell — the metadata values vals, staged by
// ProcessColumns — into the buffers of the CG group keyed (a, b).
//
//superfe:hotpath
func (s *Switch) groupCell(a, b uint64, hash uint32, tuple *flowkey.FiveTuple, vals []uint32) {
	idx := int(hash % uint32(len(s.slots)))
	sl := &s.slots[idx]

	// Case 1 of §5.2: hash collision with an older group → evict it.
	if sl.occupied && (sl.keyA != a || sl.keyB != b) {
		s.evict(idx, gpv.EvictCollision, true)
	}
	if !sl.occupied {
		sl.occupied = true
		sl.keyA, sl.keyB = a, b
		sl.hash = hash
		s.stat.GroupsAdmitted++
		s.occSlots++
		if o := s.obs; o != nil && o.Tracer.Sampled(hash) {
			o.Tracer.Record(obs.Event{Kind: obs.EvAdmit, Key: flowkey.FromWords(a, b), Clock: s.stat.PktsIn})
		}
	}
	sl.lastAccess = s.now

	// Register-width accounting (values stay exact; see registers.go).
	for _, ns := range s.narrowSlots {
		if vals[ns.pos] > ns.max {
			s.stat.CellSaturations++
		}
	}
	// The cell's last word: FG index + direction. Non-directional
	// single granularity has FG index 0 and is always forward — the
	// group key IS the packet's tuple orientation.
	meta := uint32(forwardBit)
	if !s.singleGran {
		// The FG key: the canonical 5-tuple with a direction bit
		// whenever any granularity in the chain is directional (the NIC
		// can then reconstruct the packet's true orientation and
		// re-derive direction at every level), the raw tuple otherwise.
		fg, fwd := *tuple, true
		if s.plan.NeedsDirection {
			fg, fwd = tuple.Canonical()
		}
		meta = uint32(s.fgIndex(&fg))
		if fwd {
			meta |= forwardBit
		}
	} else if s.plan.NeedsDirection {
		if _, fwd := flowkey.KeyFor(s.plan.FG, *tuple); !fwd {
			meta = 0
		}
	}

	s.appendCell(idx, vals, meta)
	if o := s.obs; o != nil && o.Tracer.Sampled(hash) {
		o.Tracer.Record(obs.Event{Kind: obs.EvCellAppend, Key: flowkey.FromWords(a, b), Clock: s.stat.PktsIn, Arg: 1})
	}
}

// fgIndex looks up (or installs) the FG key in the FG table and
// returns its index, emitting an FGUpdate to the NIC on any change
// (§5.1). On a collision with a different key the entry is
// overwritten and re-synchronised; cells already batched under the
// old key are misattributed on the NIC — counted in FGOverwrites and
// one of the approximation sources bounded by Figure 10.
func (s *Switch) fgIndex(key *flowkey.FiveTuple) uint16 {
	idx := flowkey.HashWords(flowkey.TupleWords(flowkey.GranFlow, key)) % uint32(len(s.fgTable))
	if idx > MaxWireFGIndex {
		s.stat.FGIndexClips++
	}
	e := &s.fgTable[idx]
	if !e.occupied || e.key != *key {
		if e.occupied {
			s.stat.FGOverwrites++
		}
		e.occupied = true
		e.key = *key
		if s.cfg.ZeroCopy {
			s.fgScratch = gpv.FGUpdate{Index: uint16(idx), Key: *key}
			s.emit(gpv.Message{FG: &s.fgScratch})
		} else {
			s.emit(gpv.Message{FG: &gpv.FGUpdate{Index: uint16(idx), Key: *key}})
		}
		s.stat.FGUpdates++
	}
	return uint16(idx)
}

// forwardBit is the direction flag in a register cell's last word,
// above the 16-bit FG index.
const forwardBit = 1 << 16

// store writes one cell — vals, then the FG-index/direction word — at
// cell index at of the register array regs.
func (s *Switch) store(regs []uint32, at int, vals []uint32, meta uint32) {
	w := s.nvals + 1
	dst := regs[at*w : at*w+w]
	copy(dst, vals)
	dst[s.nvals] = meta
}

// view appends to cells the n cells stored in regs from cell index at
// on. Each cell's Values aliases its register words, capped so an
// append cannot reach the cell's last word or the next cell.
func (s *Switch) view(cells []gpv.Cell, regs []uint32, at, n int) []gpv.Cell {
	w := s.nvals + 1
	for i := at * w; i < (at+n)*w; i += w {
		meta := regs[i+s.nvals]
		cells = append(cells, gpv.Cell{Values: regs[i : i+s.nvals : i+s.nvals], FGIndex: uint16(meta), Forward: meta&forwardBit != 0})
	}
	return cells
}

// appendCell adds a cell to slot idx's buffers, handling the
// short→long promotion and the buffer-full eviction (case 2 of §5.2).
// A granted long buffer never holds LongBufCells cells here: the push
// that fills it evicts it.
func (s *Switch) appendCell(idx int, vals []uint32, meta uint32) {
	sl := &s.slots[idx]
	if n := int(sl.nshort); n < s.cfg.ShortBufCells {
		s.store(s.shortBuf, idx*s.cfg.ShortBufCells+n, vals, meta)
		sl.nshort++
		if n+1 == s.cfg.ShortBufCells && sl.longIdx < 0 && !s.degraded {
			// Short buffer just filled for the first time: likely a
			// long flow — try to pop a long buffer from the stack.
			// Degraded mode skips the grant: long-buffer work is what
			// the shard is shedding.
			if n := len(s.stack); n > 0 && s.cfg.LongBufCells > 0 {
				sl.longIdx = s.stack[n-1]
				s.stack = s.stack[:n-1]
				s.stat.LongBufGrants++
				s.longGrant++
			}
		}
		return
	}
	// Short buffer full.
	if li := sl.longIdx; li >= 0 {
		n := int(s.longLen[li])
		s.store(s.longBuf, int(li)*s.cfg.LongBufCells+n, vals, meta)
		s.longLen[li]++
		if n+1 == s.cfg.LongBufCells {
			// Long buffer now full: evict short+long, keep the long
			// buffer owned so the still-active long flow can keep
			// batching without re-contending for the stack.
			s.evict(idx, gpv.EvictFull, false)
		}
		return
	}
	// No long buffer available. Degraded mode sheds the overflow cell
	// instead of evicting-and-restarting: the short buffer's batch
	// (the short-flow features) is preserved and will still reach the
	// NIC on collision/aging/flush, but the long tail stops generating
	// eviction traffic toward the stalled NIC.
	if s.degraded {
		s.stat.ShedCells++
		// Exponential coalescing: record the 1st, 2nd, 4th... shed so a
		// sustained episode leaves a bounded trail in the event ring.
		if n := s.stat.ShedCells; s.fr != nil && n&(n-1) == 0 {
			s.fr.Record(obs.Event{Kind: obs.FRShed, Clock: s.stat.PktsIn, Arg: int64(n)})
		}
		return
	}
	// Evict the short buffer and restart it.
	s.evict(idx, gpv.EvictFull, false)
	s.store(s.shortBuf, idx*s.cfg.ShortBufCells, vals, meta)
	sl.nshort = 1
}

// evict emits slot idx's batched cells as one MGPV message and clears
// its buffers. release controls whether an owned long buffer is
// returned to the stack (collision and aging evictions release;
// buffer-full evictions keep it, §5.2).
func (s *Switch) evict(idx int, reason gpv.EvictReason, release bool) {
	sl := &s.slots[idx]
	if !sl.occupied {
		return
	}
	short := idx * s.cfg.ShortBufCells
	ns, nl, long := int(sl.nshort), 0, 0
	if sl.longIdx >= 0 {
		nl, long = int(s.longLen[sl.longIdx]), int(sl.longIdx)*s.cfg.LongBufCells
		s.longLen[sl.longIdx] = 0
	}
	if n := ns + nl; n > 0 {
		// The message's short+long cell list. In ZeroCopy mode it is
		// borrowed: the per-switch scratch, its Values aliasing the
		// register arrays. Otherwise the cells' words are copied out,
		// since the sink may retain the message while the registers
		// take the slot's next batch.
		var m *gpv.MGPV
		if s.cfg.ZeroCopy {
			cells := s.view(s.evictCells[:0], s.shortBuf, short, ns)
			cells = s.view(cells, s.longBuf, long, nl)
			s.evictMGPV = gpv.MGPV{CG: sl.key(), Hash: sl.hash, Cells: cells[:n:n], Reason: reason}
			m = &s.evictMGPV
		} else {
			w := s.nvals + 1
			regs := make([]uint32, n*w)
			copy(regs, s.shortBuf[short*w:(short+ns)*w])
			copy(regs[ns*w:], s.longBuf[long*w:(long+nl)*w])
			m = &gpv.MGPV{CG: sl.key(), Hash: sl.hash, Cells: s.view(make([]gpv.Cell, 0, n), regs, 0, n), Reason: reason}
		}
		s.emit(gpv.Message{MGPV: m})
		s.stat.Evictions[reason]++
		s.stat.CellsOut += uint64(n)
		if o := s.obs; o != nil {
			s.cellsPerMsg.Observe(int64(n))
			if o.Tracer.Sampled(sl.hash) {
				o.Tracer.Record(obs.Event{Kind: obs.EvEvict, Key: sl.key(), Clock: s.stat.PktsIn, Reason: uint8(reason), Arg: int64(n)})
			}
		}
	}
	sl.nshort = 0
	if release && sl.longIdx >= 0 {
		s.stack = append(s.stack, sl.longIdx)
		sl.longIdx = -1
		s.longGrant--
	}
	if reason == gpv.EvictCollision || reason == gpv.EvictAging || reason == gpv.EvictFlush {
		sl.occupied = false
		s.occSlots--
	}
}

// emit encodes the message, charges its bytes, and hands it to the
// sink.
func (s *Switch) emit(m gpv.Message) {
	s.stat.MsgsOut++
	s.stat.BytesOut += uint64(m.EncodedSize())
	s.out(m)
}

// Flush evicts every resident group (end-of-trace drain) so no
// batched metadata is lost. Eviction reason is EvictFlush, which the
// aggregation-ratio accounting includes like any other eviction.
func (s *Switch) Flush() {
	for i := range s.slots {
		if s.slots[i].occupied {
			s.evict(i, gpv.EvictFlush, true)
		}
	}
	s.publishObs()
}

// ActiveOccupied counts occupied slots and, of those, the ones whose
// group received a packet within the window — the "buffer
// efficiency" numerator/denominator of Figure 14.
func (s *Switch) ActiveOccupied(window int64) (active, occupied int) {
	for i := range s.slots {
		if s.slots[i].occupied {
			occupied++
			if s.now-s.slots[i].lastAccess <= window {
				active++
			}
		}
	}
	return
}
