package nicsim

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// layoutModes are the deployments TestRecordLayout lays out: telemetry
// off and on, which must lay every record out alike, and naive, whose
// logs record the unwrapped clock.
var layoutModes = []struct {
	name string
	cfg  func() Config
}{
	{"telemetry off", DefaultConfig},
	{"telemetry on", func() Config {
		cfg := DefaultConfig()
		cfg.Obs = obs.NewPipeline(obs.Options{Enabled: true}, 0)
		return cfg
	}},
	{"naive", func() Config {
		cfg := DefaultConfig()
		cfg.Naive = true
		return cfg
	}},
}

// catalogPrograms deploys every catalog application in mode m and hands
// each program to fn with its app's plan.
func catalogPrograms(t *testing.T, m int, fn func(app string, plan *policy.Plan, pr *program)) {
	t.Helper()
	for _, app := range apps.Catalog() {
		plan, err := policy.Compile(app.Build())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(layoutModes[m].cfg(), plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range rt.programs {
			fn(app.Name, plan, pr)
		}
	}
}

// TestRecordLayout pins the stride of every catalog program's record,
// in chain order, with telemetry off and on and under Config.Naive, and
// holds its header to the rule that a word exists exactly where
// something reads it: the last timestamp in the FG program of a
// per-group policy (Flush) and wherever a map reads the previous
// cell's timestamp (ipt or burst over it, speed), the unwrapped clock
// where a damped lane decays on it or a naive log records it. The
// header's words come first, then the map scratch the record keeps
// (an ipt's or burst's last input that is not the timestamp, burst's
// counter), then the states, with nothing between them and nothing
// after. No word keeps what the header holds: after a replay, no word
// past the header equals its group's cell count, or its last
// timestamp, in every group (noWordRepeatsTheHeader). Telemetry stores
// nothing in a group: with it on, every program's stride and header
// offsets are those with it off.
func TestRecordLayout(t *testing.T) {
	want := map[string][2][]int{ // telemetry off and on, naive
		"CUMUL":     {{16}, {10}},
		"AWF":       {{5}, {6}},
		"DF":        {{5}, {6}},
		"TF":        {{5}, {6}},
		"PeerShark": {{39}, {9}},
		"N-BaIoT":   {{19, 95}, {19, 55}},
		"MPTD":      {{91}, {46}},
		"NPOD":      {{22}, {8}},
		"HELAD":     {{19, 79, 79, 19}, {19, 39, 39, 19}},
		"Kitsune":   {{19, 95, 79, 19}, {19, 55, 39, 19}},
	}
	// layouts[m][app] lists mode m's (stride, lastTS, clock) by program.
	layouts := make([]map[string][][3]int, len(layoutModes))
	for m, mode := range layoutModes {
		got := map[string][]int{}
		layouts[m] = map[string][][3]int{}
		naive := m == 2
		catalogPrograms(t, m, func(app string, plan *policy.Plan, pr *program) {
			got[app] = append(got[app], pr.table.stride)
			layouts[m][app] = append(layouts[m][app], [3]int{pr.table.stride, pr.lastTS, pr.clock})
			prevTS, scratch := false, 0 // a map reads the previous timestamp; the scratch words kept
			for _, ins := range pr.instrs {
				switch ins.code {
				case opcode(policy.MapIPT), opcode(policy.MapBurst), opcode(policy.MapSpeed):
					prevTS = prevTS || ins.last == 0
					scratch += min(ins.last, 1) + min(ins.count, 1)
				}
			}
			for _, w := range []struct {
				name string
				off  int
				read bool
			}{
				{"last timestamp", pr.lastTS, pr.isFG && !plan.Policy.PerPacket() || prevTS},
				{"clock", pr.clock, len(pr.lanes) > 0 || naive && len(pr.states) > 0},
			} {
				if (w.off != 0) != w.read {
					t.Errorf("%s %s, %s program: %s at word %d, read: %v", app, mode.name, pr.gran, w.name, w.off, w.read)
				}
			}
			header := recHeader
			for _, off := range []int{pr.lastTS, pr.clock} {
				if off != 0 {
					if off != header {
						t.Errorf("%s %s, %s program: a header word at %d, want %d", app, mode.name, pr.gran, off, header)
					}
					header++
				}
			}
			words := header + scratch
			for _, ins := range pr.instrs {
				for _, off := range []int{ins.last, ins.count} {
					if off != 0 && (off < header || off >= words) {
						t.Errorf("%s %s, %s program: scratch at %d, outside [%d, %d)", app, mode.name, pr.gran, off, header, words)
					}
				}
			}
			for _, st := range pr.states {
				if st.off != words {
					t.Errorf("%s %s, %s program: a state at %d, want %d", app, mode.name, pr.gran, st.off, words)
				}
				words += st.kern.Words
			}
			if words != pr.table.stride {
				t.Errorf("%s %s, %s program: %d words laid out, stride %d", app, mode.name, pr.gran, words, pr.table.stride)
			}
		})
		row := 0
		if naive {
			row = 1
		}
		for app, strides := range got {
			if !slices.Equal(strides, want[app][row]) {
				t.Errorf("%s %s: strides %v, want %v", app, mode.name, strides, want[app][row])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d catalog apps, the table pins %d", mode.name, len(got), len(want))
		}
	}
	for app, off := range layouts[0] {
		if on := layouts[1][app]; !slices.Equal(on, off) {
			t.Errorf("%s: (stride, lastTS, clock) by program %v with telemetry on, %v off", app, on, off)
		}
	}
	noWordRepeatsTheHeader(t)
}

// noWordRepeatsTheHeader replays a MAWI-shaped trace through every
// catalog application and fails on a record word past the header that
// equals its group's cell count, or its last timestamp, in every group
// of its table: a word that keeps what the header holds. A table whose
// groups do not differ in both is too uniform to tell, and fails too,
// but for the last timestamp of a plan that batches none.
func noWordRepeatsTheHeader(t *testing.T) {
	t.Helper()
	wl := trace.MAWIConfig
	wl.Flows = 120
	tr := trace.Generate(wl, 5)
	for _, app := range apps.Catalog() {
		plan, err := policy.Compile(app.Build())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range capture(t, plan, tr) {
			rt.Process(m)
		}
		for _, pr := range rt.programs {
			tb := &pr.table
			for _, h := range []struct {
				name string
				off  int
			}{{"cell count", recCells}, {"last timestamp", pr.lastTS}} {
				if h.off == 0 || h.off == pr.lastTS && rt.tsPos < 0 {
					continue
				}
				distinct := map[uint64]bool{}
				for i := range tb.n {
					distinct[tb.at(i)[h.off]] = true
				}
				if len(distinct) < 3 {
					t.Fatalf("%s, %s program: %d groups with %d distinct values of the %s", app.Name, pr.gran, tb.n, len(distinct), h.name)
				}
				for w := recHeader + min(pr.lastTS, 1) + min(pr.clock, 1); w < tb.stride; w++ {
					same := true
					for i := range tb.n {
						if g := tb.at(i); g[w] != g[h.off] {
							same = false
							break
						}
					}
					if same {
						t.Errorf("%s, %s program: word %d repeats the %s in all %d groups", app.Name, pr.gran, w, h.name, tb.n)
					}
				}
			}
		}
	}
}

// TestBlockFitsItsAllocation: for every catalog table, in every mode, a
// block is zeroed, holds at least groupBlock records and raises the live
// heap by no more than 2 % over its bytes — the allocator's rounding is
// filled with records — and at finds position i in block i / perBlock.
func TestBlockFitsItsAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for m, mode := range layoutModes {
		catalogPrograms(t, m, func(app string, _ *policy.Plan, pr *program) {
			tb := newGroupTable(pr.table.stride)
			var before, after runtime.MemStats
			grew := ^uint64(0)
			var b []uint64
			// The live heap's growth, after a collection on either side:
			// what the block keeps, whatever garbage allocating it made.
			// The least of three, so that nothing else allocating counts.
			for range 3 {
				b = nil
				runtime.GC()
				runtime.ReadMemStats(&before)
				b = tb.block()
				runtime.GC()
				runtime.ReadMemStats(&after)
				grew = min(grew, after.HeapAlloc-before.HeapAlloc)
			}
			if i := slices.IndexFunc(b, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Errorf("%s %s, %s table: a new block's word %d is %#x", app, mode.name, pr.gran, i, b[i])
			}
			bytes := uint64(8 * len(b))
			if tb.perBlock < groupBlock || len(b) != tb.perBlock*tb.stride {
				t.Errorf("%s %s, %s table: a block of %d words holds %d records of %d", app, mode.name, pr.gran, len(b), tb.perBlock, tb.stride)
			}
			if 100*grew > 102*bytes {
				t.Errorf("%s %s, %s table: a block of %d bytes raised the heap by %d", app, mode.name, pr.gran, bytes, grew)
			}
			per := uint64(tb.perBlock)
			for k := range 1000 {
				i := uint64(rng.Uint32())
				if k < 4 { // the edges: a block's first and last, the last ref
					i = []uint64{0, per - 1, per, 1<<32 - 1}[k]
				}
				if q, _ := bits.Mul64(tb.recip, i+1); q != i/per {
					t.Fatalf("%s %s, %s table: position %d in block %d, want %d", app, mode.name, pr.gran, i, q, i/per)
				}
			}
		})
	}
}
