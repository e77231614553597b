// Package nicsim simulates SuperFE's FE-NIC: the Micro-C program the
// policy engine deploys on Netronome NFP-4000 SoC SmartNICs to
// compute feature vectors from batched MGPV metadata (§6 of the
// paper).
//
// The simulator has two coupled halves:
//
//   - a functional runtime (runtime.go) that consumes the
//     switch→NIC message stream, maintains per-group state with the
//     streaming algorithms of internal/streaming, and emits feature
//     vectors — real computation, not a model;
//
//   - an architectural cost model (cost.go, placement.go) of the NFP:
//     islands × cores × 8 threads at 800 MHz, the CLS/CTM/IMEM/EMEM
//     memory hierarchy with per-level latencies and the 512-bit data
//     bus, group tables with fixed-length chaining and DRAM overflow,
//     and the three cycle optimizations of §6.2 (switch-hash reuse,
//     thread-level latency hiding, division elimination). The model
//     is driven by the same compiled plan the runtime executes, so
//     the Figure 15-17 experiments measure real per-packet operation
//     counts priced with NFP latencies.
//
// This package substitutes for the ~3K lines of Micro-C of the
// paper's prototype (§7); see DESIGN.md §1.
//
//superfe:deterministic
package nicsim

import (
	"fmt"

	"superfe/internal/faults"
	"superfe/internal/obs"
)

// MemLevel identifies one level of the NFP memory hierarchy
// (Figure 8 of the paper).
type MemLevel int

// NFP memory levels, nearest first.
const (
	MemCLS MemLevel = iota
	MemCTM
	MemIMEM
	MemEMEM
	NumMemLevels
)

// String names the level as Netronome documentation does.
func (m MemLevel) String() string {
	switch m {
	case MemCLS:
		return "CLS"
	case MemCTM:
		return "CTM"
	case MemIMEM:
		return "IMEM"
	case MemEMEM:
		return "EMEM"
	}
	return fmt.Sprintf("mem(%d)", int(m))
}

// MemorySpec describes one level: capacity, access latency in core
// cycles, and scope (island-local or chip-shared).
type MemorySpec struct {
	Level       MemLevel
	Bytes       int
	LatencyCyc  int
	IslandLocal bool
}

// Config describes the SmartNIC complement attached to the switch.
type Config struct {
	Islands        int
	CoresPerIsland int
	ThreadsPerCore int
	FreqHz         float64
	Memories       [NumMemLevels]MemorySpec
	// BusBytes is the data-bus width between cores and the memory
	// subsystem (512 bits = 64 bytes, §6.2 "Group table
	// implementation").
	BusBytes int
	// TableWidth is the fixed chain length of the group hash tables
	// (entries per index).
	TableWidth int
	// GroupSlots is the number of hash indices per group table; the
	// collision-overflow entries beyond width×slots spill to DRAM.
	GroupSlots int
	Opt        Optimizations
	// Naive switches the runtime to the store-everything reducers of
	// the Figure 15 ablation.
	Naive bool
	// Obs, when non-nil, is the shard's telemetry: NewRuntime registers
	// the runtime's series in its still-open registry — a counter per
	// RuntimeStats.Rows row and the live-group gauge — and sampled
	// flow-lifecycle events go to its tracer. Every series counts what
	// the executor did; modelled numbers are the plan's (Place,
	// NewCostModel). Telemetry stores nothing in a group: a record's
	// layout is the same with it on and off. Nil keeps the hot path
	// byte-identical to the uninstrumented build.
	Obs *obs.Pipeline
	// Faults, when non-nil, injects the NIC-side fault kinds the
	// runtime handles itself (transient EMEM allocation failures on
	// group admission; island stalls are modelled at the delivery
	// layer in core). Nil disables injection.
	Faults *faults.Injector
	// FlightRec, when non-nil, receives EMEM-drop events (coalesced
	// exponentially: the 1st, 2nd, 4th... drop) for the always-on
	// flight recorder. Must be owned by the goroutine driving this
	// runtime.
	FlightRec *obs.Ring[obs.Event]
}

// Optimizations toggles the §6.2 cycle optimizations, enabling the
// incremental Figure 17 experiment.
type Optimizations struct {
	ReuseSwitchHash bool // skip NIC-side hash; use the hash in the MGPV header
	Threading       bool // hide memory latency behind the 8 hardware threads
	DivisionElim    bool // replace per-packet divisions with compares
}

// AllOptimizations enables everything (the deployed configuration).
func AllOptimizations() Optimizations {
	return Optimizations{ReuseSwitchHash: true, Threading: true, DivisionElim: true}
}

// DefaultConfig models one NFP-4000: 5 islands × 12 cores × 8
// threads at 800 MHz (60 cores; the paper's two-NIC setup doubles
// the islands for 120 cores).
func DefaultConfig() Config {
	return Config{
		Islands:        5,
		CoresPerIsland: 12,
		ThreadsPerCore: 8,
		FreqHz:         800e6,
		Memories: [NumMemLevels]MemorySpec{
			MemCLS:  {Level: MemCLS, Bytes: 64 << 10, LatencyCyc: 26, IslandLocal: true},
			MemCTM:  {Level: MemCTM, Bytes: 256 << 10, LatencyCyc: 60, IslandLocal: true},
			MemIMEM: {Level: MemIMEM, Bytes: 4 << 20, LatencyCyc: 150, IslandLocal: false},
			MemEMEM: {Level: MemEMEM, Bytes: 3 << 20, LatencyCyc: 250, IslandLocal: false},
		},
		BusBytes:   64,
		TableWidth: 4,
		GroupSlots: 4096,
		Opt:        AllOptimizations(),
	}
}

// TwoNICConfig doubles the islands, modelling the paper's two
// NFP-4000 cards (120 cores total, Figure 16's x-axis maximum).
func TwoNICConfig() Config {
	c := DefaultConfig()
	c.Islands *= 2
	return c
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.Islands * c.CoresPerIsland }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Islands <= 0 || c.CoresPerIsland <= 0 || c.ThreadsPerCore <= 0 {
		return fmt.Errorf("nicsim: core topology misconfigured (%d×%d×%d)", c.Islands, c.CoresPerIsland, c.ThreadsPerCore)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("nicsim: frequency must be positive")
	}
	if c.BusBytes <= 0 || c.TableWidth <= 0 || c.GroupSlots <= 0 {
		return fmt.Errorf("nicsim: table geometry misconfigured")
	}
	for i, m := range c.Memories {
		if m.Bytes <= 0 || m.LatencyCyc <= 0 {
			return fmt.Errorf("nicsim: memory %s misconfigured", MemLevel(i))
		}
	}
	return nil
}

// NFP operation costs in core cycles, used by the cost model. The
// division cost is the paper's own number (§6.2: "it takes 1500
// cycles to perform such computation on SmartNICs"); the others are
// standard NFP micro-engine figures.
const (
	CycDivision     = 1500 // compiler-provided algorithmic division
	CycCompare      = 1    // compare/branch
	CycALU          = 1    // add/sub/shift
	CycMultiply     = 5    // 32-bit multiply
	CycHash         = 120  // computing a tuple hash in software
	CycCtxSwitch    = 2    // hardware thread context switch
	CycDispatch     = 40   // per-cell header parse + dispatch
	CycDRAMOverflow = 500  // chained lookup that spilled to DRAM
)
