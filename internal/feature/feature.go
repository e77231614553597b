// Package feature defines the feature vectors SuperFE emits —
// the output of the whole pipeline, ready for a behaviour detector
// (§3.2: "the output of SuperFE are feature vectors from the
// SmartNICs").
package feature

import (
	"fmt"

	"superfe/internal/flowkey"
)

// Vector is one extracted feature vector.
type Vector struct {
	// Key identifies the group (or, for per-packet policies, the
	// finest-granularity group of the packet).
	Key flowkey.Key
	// Timestamp is the trace time at which the vector was emitted
	// (ns).
	Timestamp int64
	// Values is the feature vector in collect order.
	Values []float64
}

// String renders a short summary.
func (v Vector) String() string {
	return fmt.Sprintf("%s dim=%d t=%dns", v.Key, len(v.Values), v.Timestamp)
}

// Sink consumes emitted vectors. Implementations must not retain
// Values past the call unless they copy it.
type Sink func(Vector)

// Collect returns a sink appending into the given slice (copying
// values).
func Collect(dst *[]Vector) Sink {
	return func(v Vector) {
		v.Values = append([]float64(nil), v.Values...)
		*dst = append(*dst, v)
	}
}
