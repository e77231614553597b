// The //superfe:padded half of memmodelrole: a padded struct with no
// pad, an undersized pad, and the by-value embeddings that silently
// discard cache-line alignment.
package memmodelrole

// padRing is properly padded: the writer-owned halves sit a full line
// apart.
//
//superfe:padded
type padRing struct {
	a uint64
	_ [64]byte
	b uint64
}

// bare claims padding it does not have.
//
//superfe:padded
type bare struct { // want `bare is declared //superfe:padded but contains no cache-line pad`
	a uint64
	b uint64
}

// short pads with less than a cache line.
//
//superfe:padded
type short struct {
	a uint64
	_ [64]byte
	b uint64
	_ [8]byte // want `pad in //superfe:padded struct short is 8 bytes, smaller than the 64-byte cache line`
	c uint64
}

type holder struct {
	byValue padRing  // want `struct field holds padded struct padRing by value`
	byPtr   *padRing // pointer: alignment preserved
}

type table struct {
	rings []padRing // want `array/slice element holds padded struct padRing by value`
}

func byValue(r padRing) uint64 { // want `parameter holds padded struct padRing by value`
	return r.a
}

func byPtr(r *padRing) uint64 { return r.a }

func copies(p *padRing) {
	r := *p // want `dereference copy holds padded struct padRing by value`
	_ = r
}

// --- Instrumented-ring shapes (the parallel engine's ring telemetry):
// producer-owned instrumentation lives behind its own cache-line pad
// so counter updates never bounce the consumer's line, and snapshots
// read the padded struct through a pointer, never by copying it.

// instrRing pads the shared head/tail halves AND the producer-owned
// telemetry block: three writer domains, two full-line pads.
//
//superfe:padded
type instrRing struct {
	head uint64
	_    [64]byte
	tail uint64
	_    [64]byte
	// producer-owned instrumentation: plain fields, single writer.
	occHW        uint64
	parkEpisodes uint64
}

// instrBare bolts the telemetry counters straight onto the shared
// fields with no pad at all.
//
//superfe:padded
type instrBare struct { // want `instrBare is declared //superfe:padded but contains no cache-line pad`
	head  uint64
	tail  uint64
	occHW uint64
}

// snapshotCopy shows the snapshot mistake: copying the padded ring by
// value to "freeze" it also copies 128 bytes of pad and silently
// discards the alignment the annotation promised.
func snapshotCopy(r *instrRing) uint64 {
	s := *r // want `dereference copy holds padded struct instrRing by value`
	return s.occHW
}

// snapshotFields reads the counters field-by-field through the
// pointer: the correct quiescent-snapshot shape.
func snapshotFields(r *instrRing) (uint64, uint64) {
	return r.occHW, r.parkEpisodes
}
