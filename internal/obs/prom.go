package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Output is byte-deterministic:
// series appear in registration order, HELP/TYPE headers are emitted
// once per metric name, histogram buckets render cumulatively with
// le labels plus _sum and _count.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	var b strings.Builder
	lastName := ""
	for i := range s.Defs {
		d := &s.Defs[i]
		if d.Name != lastName {
			fmt.Fprintf(&b, "# HELP %s %s\n", d.Name, d.Help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", d.Name, d.Kind)
			lastName = d.Name
		}
		switch d.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", d.Name, promLabels(d.Labels, "", ""), s.Vals[d.Slot])
		case KindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", d.Name, promLabels(d.Labels, "", ""), int64(s.Vals[d.Slot]))
		case KindHistogram:
			var cum uint64
			for bi := 0; bi <= len(d.Edges); bi++ {
				cum += s.Vals[d.Slot+histHdrSlots+bi]
				le := "+Inf"
				if bi < len(d.Edges) {
					le = strconv.FormatInt(d.Edges[bi], 10)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", d.Name, promLabels(d.Labels, "le", le), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %d\n", d.Name, promLabels(d.Labels, "", ""), int64(s.Vals[d.Slot+1]))
			fmt.Fprintf(&b, "%s_count%s %d\n", d.Name, promLabels(d.Labels, "", ""), s.Vals[d.Slot])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels renders a label set, optionally with one extra pair
// appended (the histogram le label).
func promLabels(labels []LabelPair, extraName, extraVal string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// jsonSeries is the JSON shape of one series in a dump.
type jsonSeries struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *int64            `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *int64            `json:"sum,omitempty"`
	Edges   []int64           `json:"edges,omitempty"`
	Buckets []uint64          `json:"buckets,omitempty"`
}

// WriteJSON renders the snapshot as a JSON array of series, in
// registration order (deterministic; label maps marshal with sorted
// keys).
func WriteJSON(w io.Writer, s *Snapshot) error {
	out := make([]jsonSeries, 0, len(s.Defs))
	for i := range s.Defs {
		d := &s.Defs[i]
		js := jsonSeries{Name: d.Name, Kind: d.Kind.String()}
		if len(d.Labels) > 0 {
			js.Labels = make(map[string]string, len(d.Labels))
			for _, l := range d.Labels {
				js.Labels[l.Name] = l.Value
			}
		}
		switch d.Kind {
		case KindHistogram:
			count := s.Vals[d.Slot]
			sum := int64(s.Vals[d.Slot+1])
			js.Count, js.Sum = &count, &sum
			js.Edges = d.Edges
			js.Buckets = s.Vals[d.Slot+histHdrSlots : d.Slot+d.slots()]
		default:
			v := int64(s.Vals[d.Slot])
			js.Value = &v
		}
		out = append(out, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteSeriesCSV renders the interval time-series as CSV for offline
// plotting: one row per interval, one column per scalar series
// (counters as interval deltas, gauges as end-of-interval values),
// plus a derived agg_ratio column (interval bytes out / bytes in)
// when both switch byte counters are present. Histogram series are
// skipped — dump them per-snapshot with WriteJSON instead.
func WriteSeriesCSV(w io.Writer, series *Series) error {
	var b strings.Builder
	if len(series.Snaps) == 0 {
		_, err := io.WriteString(w, "clock\n")
		return err
	}
	defs := series.Snaps[0].Defs
	b.WriteString("clock")
	scalar := make([]int, 0, len(defs))
	for i := range defs {
		d := &defs[i]
		if d.Kind == KindHistogram {
			continue
		}
		scalar = append(scalar, i)
		b.WriteByte(',')
		b.WriteString(csvName(d))
	}
	// Resolved by name alone, so a tenant-Tagged series still derives.
	inSlot, outSlot := slotOf(defs, "superfe_switch_bytes_in_total"), slotOf(defs, "superfe_switch_bytes_out_total")
	derived := inSlot >= 0 && outSlot >= 0
	if derived {
		b.WriteString(",agg_ratio")
	}
	b.WriteByte('\n')
	for _, snap := range series.Snaps {
		fmt.Fprintf(&b, "%d", snap.Clock)
		for _, di := range scalar {
			d := &defs[di]
			if d.Kind == KindGauge {
				fmt.Fprintf(&b, ",%d", int64(snap.Vals[d.Slot]))
			} else {
				fmt.Fprintf(&b, ",%d", snap.Vals[d.Slot])
			}
		}
		if derived {
			in, out := snap.Vals[inSlot], snap.Vals[outSlot]
			ratio := 0.0
			if in > 0 {
				ratio = float64(out) / float64(in)
			}
			fmt.Fprintf(&b, ",%.6f", ratio)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// slotOf returns the value slot of the first series with the given
// name, or -1.
func slotOf(defs []SeriesDef, name string) int {
	for i := range defs {
		if defs[i].Name == name {
			return defs[i].Slot
		}
	}
	return -1
}

// csvName flattens a series name plus labels into one CSV column
// header, e.g. superfe_switch_evictions_total{reason=full} →
// superfe_switch_evictions_total.reason=full.
func csvName(d *SeriesDef) string {
	if len(d.Labels) == 0 {
		return d.Name
	}
	var b strings.Builder
	b.WriteString(d.Name)
	for _, l := range d.Labels {
		b.WriteByte('.')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}
