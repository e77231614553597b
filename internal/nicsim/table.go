package nicsim

import (
	"math"
	"math/bits"
	"slices"

	"superfe/internal/flowkey"
)

// The host's geometry for a group table. Config.GroupSlots/TableWidth
// are the modelled NFP geometry, read only by the placement and the
// cost model; these only shape what the simulator itself probes.
const (
	// groupBlock is the group records a block asks for, blockBytes the
	// most bytes it asks for: a record wider than blockBytes/groupBlock
	// gets as many records as fit blockBytes, at least one. A block is
	// one allocation, which the allocator rounds up to its size class or
	// page; the table fills the rounding with more records (block), so
	// a block wastes less than one record. A record of up to 128 words,
	// as every catalog one is, gets groupBlock to a block.
	groupBlock = 64
	blockBytes = 64 << 10
	// tableMinSlots is the index size a table starts from; it doubles
	// whenever an insert would take the load past 3/4.
	tableMinSlots = 64
)

// record is one group: a fixed number of words, the header below and
// then the granularity's map scratch and reducer states at the offsets
// compileProgram resolved. It is a slice into its table's block and
// names the group for as long as the table lives.
type record []uint64

// The header words every record starts with. The words only some
// programs read — the last timestamp, the unwrapped clock — follow
// where compileProgram keeps them (program.lastTS, program.clock).
const (
	// recKeyA and recKeyB hold the key (flowkey.Key.Words).
	recKeyA = iota
	recKeyB
	// recCells counts the cells the group has absorbed; zero marks the
	// group's first cell, which is what starts every state.
	recCells
	recHeader // the fixed header's length
)

// key rebuilds the group's key from its two words.
func (g record) key() flowkey.Key { return flowkey.FromWords(g[recKeyA], g[recKeyB]) }

// groupTable stores one granularity's groups: an open-addressed,
// linearly probed index over records kept in admission order, at a
// fixed stride, perBlock records to a block. A record therefore never
// moves (a group's ref, its position + 1, names it for good), walking
// the blocks is deterministic, and a block is one pointer-free
// allocation. The caller supplies the probe hash — the switch-computed
// one carried by the MGPV wherever it can (§6.2 hash reuse) — and the
// hash only picks where probing starts: identity is full key equality,
// so the one requirement is that a key always arrives with the same
// hash.
type groupTable struct {
	index  []tableSlot // power-of-two length
	shift  uint        // 32 - log2(len(index))
	stride int         // words per record
	// perBlock records fill a block (0 until the first is allocated);
	// recip is ⌊(2⁶⁴−1)/perBlock⌋, so at divides a position i by perBlock
	// with one multiply: the high word of recip·(i+1), exact for 32-bit
	// positions and a perBlock of 1, whose ⌈2⁶⁴/perBlock⌉ would not fit.
	perBlock int
	recip    uint64
	blocks   [][]uint64
	n        int
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
	b, _ := bits.Mul64(t.recip, uint64(i)+1)
	o := (i - int(b)*t.perBlock) * t.stride
	return t.blocks[b][o : o+t.stride : o+t.stride]
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
	if t.n == len(t.blocks)*t.perBlock {
		t.blocks = append(t.blocks, t.block())
	}
	t.n++
	t.place(tableSlot{hash: h, ref: uint32(t.n)})
	g := t.at(t.n - 1)
	g[recKeyA], g[recKeyB] = a, b
	return g
}

// block allocates a zeroed block: groupBlock records, fewer where they
// would pass blockBytes (at least one), and as many more as the
// allocator's rounding of that request holds whole. The first block
// fixes perBlock; every later one is the same request, so it rounds
// the same.
//
//superfe:coldpath
func (t *groupTable) block() []uint64 {
	n := max(1, min(groupBlock, blockBytes/(8*t.stride)))
	b := slices.Grow([]uint64(nil), n*t.stride)
	if t.perBlock == 0 {
		t.perBlock = cap(b) / t.stride
		t.recip = math.MaxUint64 / uint64(t.perBlock)
	}
	return b[:t.perBlock*t.stride]
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
