// Package gpv defines the Grouped Packet Vector (GPV) and
// Multi-granularity GPV (MGPV) record formats of §5.1, together with
// the binary wire codec used on the switch→SmartNIC channel.
//
// A GPV (from *Flow) is a flow key plus a variable-length list of
// per-packet feature metadata. MGPV extends it for multi-granularity
// feature extraction: packets are grouped at the coarsest granularity
// (CG), every cell carries an index into a deduplicated
// finest-granularity (FG) key table, and the FG table itself is
// synchronised to the NIC with separate update messages. The NIC can
// then recover grouping at every intermediate granularity from the FG
// keys while the switch stores each packet's metadata exactly once.
//
// The codec exists because Figure 12 of the paper measures the
// aggregation ratio — MGPV bytes emitted to the NIC divided by raw
// traffic bytes received — so the byte-exact encoded size matters.
//
//superfe:deterministic
package gpv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"superfe/internal/flowkey"
)

// Cell is the feature metadata of one packet inside an MGPV: the
// batched field values (layout fixed by the policy's SwitchPlan), the
// index into the FG key table, and the direction bit for directional
// granularities.
type Cell struct {
	Values  []uint32 // one per SwitchPlan.MetadataFields entry
	FGIndex uint16
	Forward bool
}

// EvictReason records why the switch evicted an MGPV (§5.2 "MGPV
// eviction" lists the three cases).
type EvictReason uint8

// Eviction causes.
const (
	EvictCollision EvictReason = iota // hash collision with a new group
	EvictFull                         // short or long buffer filled up
	EvictAging                        // aging timeout T expired
	EvictFlush                        // end-of-trace drain (not in the paper; simulator bookkeeping)
)

// String names the eviction cause.
func (r EvictReason) String() string {
	switch r {
	case EvictCollision:
		return "collision"
	case EvictFull:
		return "full"
	case EvictAging:
		return "aging"
	case EvictFlush:
		return "flush"
	}
	return fmt.Sprintf("evict(%d)", uint8(r))
}

// MGPV is one evicted multi-granularity grouped packet vector.
type MGPV struct {
	CG     flowkey.Key // coarsest-granularity group key
	Hash   uint32      // switch-computed hash, reused by the NIC (§6.2)
	Cells  []Cell
	Reason EvictReason
}

// FGUpdate synchronises one FG key table entry from the switch to the
// NIC ("all changes to this table on the switch are notified to the
// SmartNIC for synchronous updates", §5.1).
type FGUpdate struct {
	Index uint16
	Key   flowkey.FiveTuple
}

// Message is one unit on the switch→NIC channel: exactly one of MGPV
// or FGUpdate is set.
type Message struct {
	MGPV *MGPV
	FG   *FGUpdate
}

// Wire format:
//
//	message   := kind:u8 body
//	kind      := 0 (MGPV) | 1 (FGUpdate)
//	MGPV      := gran:u8 tuple:13B hash:u32 reason:u8 ncells:u16 nvals:u8 cell*
//	cell      := fgidx_dir:u16 value:u32 * nvals   (direction in top bit)
//	FGUpdate  := index:u16 tuple:13B
const (
	kindMGPV     = 0
	kindFGUpdate = 1
	tupleBytes   = flowkey.TupleWireBytes
	mgpvHdrBytes = 1 + 1 + tupleBytes + 4 + 1 + 2 + 1
	fgUpdBytes   = 1 + 2 + tupleBytes
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("gpv: short buffer")
	ErrBadKind     = errors.New("gpv: unknown message kind")
	ErrCellShape   = errors.New("gpv: inconsistent cell value counts")
	ErrBadGran     = errors.New("gpv: granularity out of range")
	ErrBadReason   = errors.New("gpv: eviction reason out of range")
)

// EncodedSize returns the wire size of the message without encoding
// it — the fast path for bandwidth accounting.
func (m *Message) EncodedSize() int {
	if m.FG != nil {
		return fgUpdBytes
	}
	v := m.MGPV
	nvals := 0
	if len(v.Cells) > 0 {
		nvals = len(v.Cells[0].Values)
	}
	return mgpvHdrBytes + len(v.Cells)*(2+4*nvals)
}

// Marshal appends the wire encoding of the message to dst.
func (m *Message) Marshal(dst []byte) ([]byte, error) {
	switch {
	case m.FG != nil:
		dst = append(dst, kindFGUpdate)
		var idx [2]byte
		binary.BigEndian.PutUint16(idx[:], m.FG.Index)
		dst = append(dst, idx[:]...)
		var tb [tupleBytes]byte
		flowkey.PutTuple(tb[:], m.FG.Key)
		return append(dst, tb[:]...), nil
	case m.MGPV != nil:
		v := m.MGPV
		nvals := 0
		if len(v.Cells) > 0 {
			nvals = len(v.Cells[0].Values)
		}
		if nvals > 255 {
			return nil, fmt.Errorf("gpv: too many values per cell (%d)", nvals)
		}
		dst = append(dst, kindMGPV, byte(v.CG.Gran))
		var tb [tupleBytes]byte
		flowkey.PutTuple(tb[:], v.CG.Tuple)
		dst = append(dst, tb[:]...)
		var h [4]byte
		binary.BigEndian.PutUint32(h[:], v.Hash)
		dst = append(dst, h[:]...)
		dst = append(dst, byte(v.Reason))
		var nc [2]byte
		binary.BigEndian.PutUint16(nc[:], uint16(len(v.Cells)))
		dst = append(dst, nc[:]...)
		dst = append(dst, byte(nvals))
		for _, c := range v.Cells {
			if len(c.Values) != nvals {
				return nil, ErrCellShape
			}
			fd := c.FGIndex & 0x7fff
			if c.Forward {
				fd |= 0x8000
			}
			var fb [2]byte
			binary.BigEndian.PutUint16(fb[:], fd)
			dst = append(dst, fb[:]...)
			for _, val := range c.Values {
				var vb [4]byte
				binary.BigEndian.PutUint32(vb[:], val)
				dst = append(dst, vb[:]...)
			}
		}
		return dst, nil
	}
	return nil, fmt.Errorf("gpv: empty message")
}

// Unmarshal decodes one message from b, returning the message and the
// number of bytes consumed.
func Unmarshal(b []byte) (Message, int, error) {
	if len(b) < 1 {
		return Message{}, 0, ErrShortBuffer
	}
	switch b[0] {
	case kindFGUpdate:
		if len(b) < fgUpdBytes {
			return Message{}, 0, ErrShortBuffer
		}
		u := &FGUpdate{
			Index: binary.BigEndian.Uint16(b[1:3]),
			Key:   flowkey.GetTuple(b[3 : 3+tupleBytes]),
		}
		return Message{FG: u}, fgUpdBytes, nil
	case kindMGPV:
		if len(b) < mgpvHdrBytes {
			return Message{}, 0, ErrShortBuffer
		}
		v := &MGPV{}
		v.CG.Gran = flowkey.Granularity(b[1])
		if v.CG.Gran > flowkey.GranSocket {
			return Message{}, 0, ErrBadGran
		}
		v.CG.Tuple = flowkey.GetTuple(b[2 : 2+tupleBytes])
		off := 2 + tupleBytes
		v.Hash = binary.BigEndian.Uint32(b[off : off+4])
		off += 4
		v.Reason = EvictReason(b[off])
		if v.Reason > EvictFlush {
			return Message{}, 0, ErrBadReason
		}
		off++
		ncells := int(binary.BigEndian.Uint16(b[off : off+2]))
		off += 2
		nvals := int(b[off])
		off++
		cellSize := 2 + 4*nvals
		if len(b) < off+ncells*cellSize {
			return Message{}, 0, ErrShortBuffer
		}
		v.Cells = make([]Cell, ncells)
		for i := 0; i < ncells; i++ {
			fd := binary.BigEndian.Uint16(b[off : off+2])
			off += 2
			c := Cell{FGIndex: fd & 0x7fff, Forward: fd&0x8000 != 0}
			if nvals > 0 {
				c.Values = make([]uint32, nvals)
				for j := 0; j < nvals; j++ {
					c.Values[j] = binary.BigEndian.Uint32(b[off : off+4])
					off += 4
				}
			}
			v.Cells[i] = c
		}
		return Message{MGPV: v}, off, nil
	}
	return Message{}, 0, ErrBadKind
}

// KeyHashOK reports whether the MGPV's carried hash matches the hash
// recomputed from its CG key. The switch computes the hash once and
// the NIC reuses it (§6.2); because flowkey.HashKey covers both the
// tuple and the granularity, the carried hash doubles as a free
// end-to-end integrity check — a corrupted key or hash field on the
// wire fails this test, so the delivery path can quarantine the frame
// instead of merging foreign cells into the wrong group's state.
func (v *MGPV) KeyHashOK() bool {
	return flowkey.HashKey(v.CG) == v.Hash
}

// GPVSize returns the wire size a plain single-granularity GPV record
// (the *Flow baseline) would need for the same group: key + per-cell
// metadata without the FG index. The GPV approach pays it once per
// granularity (Figure 13; the harness measures that on a running
// switchsim.GPVBank, this is the arithmetic behind it).
func GPVSize(ncells, nvals int) int {
	return 1 + tupleBytes + 4 + 1 + 2 + 1 + ncells*4*nvals
}
