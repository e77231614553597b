package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a call (or a batch of
// calls) into one layer, recorded from outside the layer. Parent is
// the span that caused it (-1 for a root); spans of one pass share
// Pass. N is the count of items the interval handled, taken at the
// same boundary as the times so ratios are measured where the work
// happens.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the same staged code runs untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Pass: pass, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id, n int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.spans[id].N = n
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its child spans cover. Overlapping
// children are merged first and clipped to the parent, so covered time
// is never subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Clock states what the timestamps are: host monotonic nanoseconds
	// since the tracer started, never simulated time.
	Clock string `json:"clock"`
	Spans []span `json:"spans"`
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
