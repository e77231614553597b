package switchsim

import "superfe/internal/gpv"

// runAging advances the recirculation-driven aging scan up to the
// current switch clock (§5.2 "Aging mechanism"). The paper keeps
// "internal" packets recirculating in the pipeline, each checking one
// cache entry per pass at high frequency; the simulator replays the
// same schedule: one entry every AgingScanNS nanoseconds of trace
// time, evicting entries idle for longer than T.
//
// The scan runs entirely in the data plane — it consumes a
// recirculation port's bandwidth but no control-channel CPU, which is
// the design point the paper argues for.
func (s *Switch) runAging() {
	if s.cfg.AgingT <= 0 {
		return
	}
	if s.agingNext == 0 {
		s.agingNext = s.now + s.cfg.AgingScanNS
		return
	}
	if s.agingNext > s.now {
		return
	}
	// Recirculation stall fault: the internal aging packets lose their
	// recirculation slot for a while, postponing the whole scan. The
	// entries they would have checked stay resident past T and age out
	// on the next pass — a timing-only perturbation that delays
	// evictions without changing any group's cell stream.
	if d := s.inj.AgingStall(); d > 0 {
		s.agingNext = s.now + d
		return
	}
	// Number of checks the recirculated packets performed during the
	// elapsed interval, bounded by one full sweep (more passes over
	// the same entries find nothing new to expire).
	due := (s.now-s.agingNext)/s.cfg.AgingScanNS + 1
	if due > int64(len(s.slots)) {
		due = int64(len(s.slots))
	}
	for i := int64(0); i < due; i++ {
		sl := &s.slots[s.agingCursor]
		// Register-array soft error: the slot's last-access register
		// reads back stale, so the idle test fires early and the group
		// is evicted prematurely. Its batched cells still reach the
		// NIC (aging evictions emit the MGPV), so features survive —
		// only the batching is worse.
		if sl.occupied && s.inj.SoftError(sl.hash) {
			sl.lastAccess = s.now - s.cfg.AgingT - 1
		}
		if sl.occupied && s.now-sl.lastAccess > s.cfg.AgingT {
			// Evict with the aging reason and release the long buffer
			// so it can be reused by other long flows — the memory
			// efficiency gain Figure 14 measures.
			s.evict(s.agingCursor, gpv.EvictAging, true)
		}
		s.agingCursor++
		if s.agingCursor == len(s.slots) {
			s.agingCursor = 0
		}
		s.stat.AgingChecks++
	}
	s.agingNext = s.now + s.cfg.AgingScanNS
}
