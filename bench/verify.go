package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// tally is the benchmark's vector sink. Timed passes use it bare —
// a count and the summed dimension, cheap enough not to be the thing
// measured — and the verification pass adds the multiset digest.
// It copies nothing out of the vector, so it honours the sink
// contract (values are only valid during the call).
type tally struct {
	n, dims uint64
	digest  bool
	sum     uint64
	xor     uint64
	buf     []byte
}

// add folds one vector in. The digest hashes the group key and the
// exact bit pattern of every value (as strict as comparing hex-float
// renderings, without formatting them) and combines the per-vector
// hashes with + and ^, so it is independent of emission order.
func (t *tally) add(v feature.Vector) {
	t.n++
	t.dims += uint64(len(v.Values))
	if !t.digest {
		return
	}
	b := t.buf[:0]
	b = append(b, byte(v.Key.Gran), byte(v.Key.Tuple.Proto))
	b = binary.LittleEndian.AppendUint32(b, v.Key.Tuple.SrcIP)
	b = binary.LittleEndian.AppendUint32(b, v.Key.Tuple.DstIP)
	b = binary.LittleEndian.AppendUint16(b, v.Key.Tuple.SrcPort)
	b = binary.LittleEndian.AppendUint16(b, v.Key.Tuple.DstPort)
	for _, x := range v.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	t.buf = b
	h := fnv.New64a()
	h.Write(b)
	s := h.Sum64()
	t.sum += s
	// A second, differently mixed accumulator: two multisets would
	// have to collide in both.
	t.xor ^= s * 0x9e3779b97f4a7c15
}

func (t *tally) String() string {
	return fmt.Sprintf("%016x%016x/%d/%d", t.sum, t.xor, t.n, t.dims)
}

// reference is what every pass of a workload is checked against: the
// sequential engine's output on the same trace.
type reference struct {
	Digest  string `json:"vector_digest"`
	Vectors uint64 `json:"vectors"`
	Dims    uint64 `json:"dims"`
	// SimDigest covers the simulators' own statistics, so a later
	// host-speed change can prove it moved no simulated number.
	SimDigest string `json:"sim_digest"`
	// Baseline is "match", or why the software baseline was not
	// compared.
	Baseline string `json:"baseline"`
}

// buildReference runs the trace through the sequential engine and,
// where the FG table never overwrote a live key (the one documented
// source of approximation, Figure 10), through the independent
// software baseline, which must then agree bit for bit.
func buildReference(pol *policy.Policy, pkts []packet.Packet) (reference, error) {
	seq := tally{digest: true}
	fe, err := core.New(core.DefaultOptions(), pol, seq.add)
	if err != nil {
		return reference{}, err
	}
	for i := range pkts {
		fe.Process(&pkts[i])
	}
	fe.Flush()
	if err := fe.Err(); err != nil {
		return reference{}, err
	}
	ref := reference{Digest: seq.String(), Vectors: seq.n, Dims: seq.dims}
	sw := fe.SwitchStats()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v", sw, fe.NICStats())
	ref.SimDigest = fmt.Sprintf("%016x", h.Sum64())

	if sw.FGOverwrites != 0 {
		ref.Baseline = fmt.Sprintf("skipped: %d FG-table overwrites", sw.FGOverwrites)
		return ref, nil
	}
	base := tally{digest: true}
	ext, err := baseline.New(pol, base.add)
	if err != nil {
		return reference{}, err
	}
	for i := range pkts {
		ext.Process(&pkts[i])
	}
	ext.Flush()
	if base.String() != ref.Digest {
		return reference{}, fmt.Errorf("baseline.Extractor digest %s differs from sequential engine %s", base.String(), ref.Digest)
	}
	ref.Baseline = "match"
	return ref, nil
}
