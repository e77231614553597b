package nicsim

import (
	"math/bits"

	"superfe/internal/flowkey"
)

// The host's geometry for a group table. Config.GroupSlots/TableWidth
// stay the modelled NFP geometry (DRAMEntries, the cost model); these
// two only shape what the simulator itself probes.
const (
	// groupBlock is how many groups one block holds (and how many
	// groups' state and scratch slices one slab backs).
	groupBlock = 64
	// tableMinSlots is the index size a table starts from; it doubles
	// whenever an insert would take the load past 3/4.
	tableMinSlots = 64
)

// groupTable stores one granularity's groups: an open-addressed,
// linearly probed index over groups kept in admission order in
// fixed-size blocks. A *group therefore never moves (the per-MGPV memo
// survives growth) and walking the blocks is deterministic. The caller
// supplies the probe hash — the switch-computed one carried by the
// MGPV wherever it can (§6.2 hash reuse) — and the hash only picks
// where probing starts: identity is full key equality, so the one
// requirement is that a key always arrives with the same hash.
type groupTable struct {
	index  []tableSlot // power-of-two length
	shift  uint        // 32 - log2(len(index))
	blocks []*[groupBlock]group
	n      int
}

// tableSlot is one index entry: the group's full hash, so a probe
// rejects a non-matching entry without touching its group, beside its
// position.
type tableSlot struct {
	hash uint32
	ref  uint32 // group index + 1; 0 marks an empty slot
}

func newGroupTable() groupTable {
	return groupTable{index: make([]tableSlot, tableMinSlots), shift: 32 - uint(bits.TrailingZeros(tableMinSlots))}
}

// home is the slot probing for h starts at. The multiply spreads the
// hash's entropy into the top bits the shift keeps, so a carried hash
// with weak low bits (FNV-1a) still scatters.
func (t *groupTable) home(h uint32) uint32 { return (h * 2654435769) >> t.shift }

// at returns the i-th group in admission order.
func (t *groupTable) at(i int) *group { return &t.blocks[i/groupBlock][i%groupBlock] }

// lookup returns key's group, or nil.
//
//superfe:hotpath
func (t *groupTable) lookup(h uint32, key flowkey.Key) *group {
	mask := uint32(len(t.index) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		s := t.index[i]
		if s.ref == 0 {
			return nil
		}
		if s.hash == h {
			if g := t.at(int(s.ref - 1)); g.key == key {
				return g
			}
		}
	}
}

// insert appends a zero group for key, which must not be present, and
// indexes it under h.
//
//superfe:coldpath
func (t *groupTable) insert(h uint32, key flowkey.Key) *group {
	if (t.n+1)*4 > len(t.index)*3 {
		t.grow()
	}
	if t.n == len(t.blocks)*groupBlock {
		t.blocks = append(t.blocks, new([groupBlock]group))
	}
	t.n++
	t.place(tableSlot{hash: h, ref: uint32(t.n)})
	g := t.at(t.n - 1)
	g.key = key
	return g
}

// place stores s in the first empty slot of its probe sequence.
func (t *groupTable) place(s tableSlot) {
	mask := uint32(len(t.index) - 1)
	i := t.home(s.hash)
	for t.index[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = s
}

// grow doubles the index and re-places every entry from its stored
// hash; the groups stay where they are.
//
//superfe:coldpath
func (t *groupTable) grow() {
	old := t.index
	t.index = make([]tableSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.ref != 0 {
			t.place(s)
		}
	}
}

// tupleWords packs a tuple into two words whose lexicographic order is
// the tuple's field order (SrcIP, DstIP, SrcPort, DstPort, Proto): the
// drain sorts by them and mixTuple hashes them.
func tupleWords(t flowkey.FiveTuple) (a, b uint64) {
	return uint64(t.SrcIP)<<32 | uint64(t.DstIP),
		uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto)
}

// mixTuple hashes a projected tuple a word at a time, for the
// granularities the switch ships no hash for.
func mixTuple(t flowkey.FiveTuple) uint32 {
	a, b := tupleWords(t)
	h := a*0x9E3779B97F4A7C15 + b*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xFF51AFD7ED558CCD
	return uint32(h >> 32)
}
