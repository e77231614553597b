// Package feature defines the feature vectors SuperFE emits —
// the output of the whole pipeline, ready for a behaviour detector
// (§3.2: "the output of SuperFE are feature vectors from the
// SmartNICs").
package feature

import (
	"fmt"
	"math"
	"sort"
	"strconv"

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

// Diff compares two vector streams bit for bit and names the first
// difference, or returns "" when they agree: key, timestamp and every
// value's IEEE-754 bits, so the NaN payloads and signed zeros an
// epsilon comparison waves through still differ. ordered compares the
// exact sequence; otherwise both streams compare as multisets.
func Diff(an string, a []Vector, bn string, b []Vector, ordered bool) string {
	ra, rb := render(a, ordered), render(b, ordered)
	if len(ra) != len(rb) {
		return fmt.Sprintf("%s emitted %d vectors, %s emitted %d", an, len(ra), bn, len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Sprintf("%s and %s disagree at vector %d:\n  %s: %s\n  %s: %s", an, bn, i, an, ra[i], bn, rb[i])
		}
	}
	return ""
}

// render writes each vector as key@timestamp|bits|bits…, sorted
// unless ordered.
func render(vecs []Vector, ordered bool) []string {
	out := make([]string, len(vecs))
	var buf []byte
	for i, v := range vecs {
		buf = append(append(buf[:0], v.Key.String()...), '@')
		buf = strconv.AppendInt(buf, v.Timestamp, 10)
		for _, x := range v.Values {
			buf = strconv.AppendUint(append(buf, '|'), math.Float64bits(x), 16)
		}
		out[i] = string(buf)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}
