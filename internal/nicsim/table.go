package nicsim

import (
	"math/bits"

	"superfe/internal/flowkey"
)

// The host's geometry for a group table. Config.GroupSlots/TableWidth
// stay the modelled NFP geometry (DRAMEntries, the cost model); these
// two only shape what the simulator itself probes.
const (
	// groupBlock is how many group records one block holds.
	groupBlock = 64
	// tableMinSlots is the index size a table starts from; it doubles
	// whenever an insert would take the load past 3/4.
	tableMinSlots = 64
)

// record is one group: a fixed number of words, the header below and
// then the granularity's map scratch and reducer states at the offsets
// compileProgram resolved. It is a slice into its table's block and
// names the group for as long as the table lives.
type record []uint64

// The header words of a record.
const (
	// recKeyA and recKeyB hold the key (flowkey.Key.Words).
	recKeyA = iota
	recKeyB
	// recCells counts the cells the group has absorbed; zero marks the
	// group's first cell, which is what starts every state.
	recCells
	// recAdmit is the runtime's logical clock (total cells processed)
	// when the group was admitted; emit latency is the clock distance
	// to the vector emission.
	recAdmit
	// recLastTS is the timestamp of the group's latest cell, the
	// timestamp of the vector Flush emits for it.
	recLastTS
	// recClock is the damped families' one clock: the latest time any
	// cell of the group carried, the 32-bit cell timestamps unwrapped
	// into 64 bits (cellTime).
	recClock
	recHeader // the layout's first word
)

// key rebuilds the group's key from its two words.
func (g record) key() flowkey.Key { return flowkey.FromWords(g[recKeyA], g[recKeyB]) }

// groupTable stores one granularity's groups: an open-addressed,
// linearly probed index over records kept in admission order, at a
// fixed stride, in blocks of groupBlock. A record therefore never moves
// (a group's ref, its position + 1, names it for good), walking the
// blocks is deterministic, and a block is one pointer-free allocation.
// The caller supplies the probe hash — the switch-computed one carried
// by the MGPV wherever it can (§6.2 hash reuse) — and the hash only
// picks where probing starts: identity is full key equality, so the one
// requirement is that a key always arrives with the same hash.
type groupTable struct {
	index  []tableSlot // power-of-two length
	shift  uint        // 32 - log2(len(index))
	stride int         // words per record
	blocks [][]uint64
	n      int
}

// tableSlot is one index entry: the group's full hash, so a probe
// rejects a non-matching entry without touching its record, beside its
// position.
type tableSlot struct {
	hash uint32
	ref  uint32 // group index + 1; 0 marks an empty slot
}

func newGroupTable(stride int) groupTable {
	return groupTable{index: make([]tableSlot, tableMinSlots), shift: 32 - uint(bits.TrailingZeros(tableMinSlots)), stride: stride}
}

// home is the slot probing for h starts at. The multiply brings the
// low bits into the top bits the shift keeps: a shard's keys share
// the hash's high bits (flowkey.HashKey), so h >> shift alone would
// pile them into one part of the index.
func (t *groupTable) home(h uint32) uint32 { return (h * 2654435769) >> t.shift }

// at returns the i-th group in admission order.
func (t *groupTable) at(i int) record {
	o := (i % groupBlock) * t.stride
	return t.blocks[i/groupBlock][o : o+t.stride : o+t.stride]
}

// lookup returns the ref of the group whose key words are (a, b): its
// position + 1, or 0 when the table holds no such group.
//
//superfe:hotpath
func (t *groupTable) lookup(h uint32, a, b uint64) uint32 {
	mask := uint32(len(t.index) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		s := t.index[i]
		if s.ref == 0 {
			return 0
		}
		if s.hash == h {
			if g := t.at(int(s.ref - 1)); g[recKeyA] == a && g[recKeyB] == b {
				return s.ref
			}
		}
	}
}

// insert appends a zero record for the key (a, b), which must not be
// present, and indexes it under h.
//
//superfe:coldpath
func (t *groupTable) insert(h uint32, a, b uint64) record {
	if (t.n+1)*4 > len(t.index)*3 {
		t.grow()
	}
	if t.n == len(t.blocks)*groupBlock {
		t.blocks = append(t.blocks, make([]uint64, groupBlock*t.stride))
	}
	t.n++
	t.place(tableSlot{hash: h, ref: uint32(t.n)})
	g := t.at(t.n - 1)
	g[recKeyA], g[recKeyB] = a, b
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
// hash; the records stay where they are.
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
