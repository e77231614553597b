package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// vectorMultiset renders vectors as sorted strings so two runs can be
// compared as multisets, independent of emission order. Values use
// the hex float format: bit-exact, no rounding ambiguity.
func vectorMultiset(t *testing.T, vecs []feature.Vector) []string {
	t.Helper()
	out := make([]string, 0, len(vecs))
	var sb strings.Builder
	for _, v := range vecs {
		sb.Reset()
		sb.WriteString(v.Key.String())
		for _, x := range v.Values {
			sb.WriteByte('|')
			sb.WriteString(strconv.FormatFloat(x, 'x', -1, 64))
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSequential is the central scaling-fidelity
// check: the same ENTERPRISE trace through the inline engine and a
// 4-worker deployment must produce the same feature-vector
// multiset and the same conservation stats. Per-group cell streams
// are preserved because all MGPVs of one CG group hash to one shard.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 400
	tr := trace.Generate(cfg, 42)

	seqVecs, seqSelected := []feature.Vector{}, 0
	fe, err := New(DefaultOptions(), apps.NPOD(), feature.Collect(&seqVecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		if fe.Process(&tr.Packets[i]) {
			seqSelected++
		}
	}
	fe.Flush()
	seqSW, seqNIC := fe.SwitchStats(), fe.NICStats()

	parVecs, parSelected := []feature.Vector{}, 0
	popts := DefaultParallelOptions()
	popts.Workers = 4
	popts.DeterministicMerge = true
	pe, err := NewParallel(popts, apps.NPOD(), feature.Collect(&parVecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		if pe.Process(&tr.Packets[i]) {
			parSelected++
		}
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	parSW, parNIC := pe.SwitchStats(), pe.NICStats()
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}

	if seqSelected != parSelected {
		t.Errorf("filter decisions: sequential %d vs parallel %d", seqSelected, parSelected)
	}
	// Conservation stats must sum to the sequential totals.
	if parSW.PktsIn != seqSW.PktsIn || parSW.BytesIn != seqSW.BytesIn ||
		parSW.PktsFiltered != seqSW.PktsFiltered || parSW.CellsOut != seqSW.CellsOut {
		t.Errorf("switch stats diverge: parallel %+v vs sequential %+v", parSW, seqSW)
	}
	if parNIC.Cells != seqNIC.Cells || parNIC.Vectors != seqNIC.Vectors {
		t.Errorf("nic stats diverge: parallel cells=%d vectors=%d vs sequential cells=%d vectors=%d",
			parNIC.Cells, parNIC.Vectors, seqNIC.Cells, seqNIC.Vectors)
	}

	// Feature vectors must match as a multiset, bit-exactly.
	sm, pm := vectorMultiset(t, seqVecs), vectorMultiset(t, parVecs)
	if len(sm) != len(pm) {
		t.Fatalf("vector counts: sequential %d vs parallel %d", len(sm), len(pm))
	}
	for i := range sm {
		if sm[i] != pm[i] {
			t.Fatalf("vector multiset diverges at %d:\n  sequential %s\n  parallel   %s", i, sm[i], pm[i])
		}
	}
}

// TestParallelSingleWorkerMatchesSequential pins the two
// configurations of the one engine against each other: core.New
// (inline, fixed 256-row batches, sink called directly) and a
// one-worker NewParallel (ring hand-off, a batch size that shares no
// boundary with 256, DeterministicMerge) have the same cache geometry
// and hash→slot mapping, so they must emit the identical vector
// sequence — not just multiset — and identical merged switch and NIC
// stats, collision-dependent counters included.
func TestParallelSingleWorkerMatchesSequential(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 100
	tr := trace.Generate(cfg, 7)

	for _, pol := range []func() *policy.Policy{statsPolicy, apps.Kitsune} {
		var seqVecs []feature.Vector
		fe, err := New(DefaultOptions(), pol(), feature.Collect(&seqVecs))
		if err != nil {
			t.Fatal(err)
		}
		name := fe.Plan().Policy.Name()
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		if err := fe.Flush(); err != nil {
			t.Fatal(err)
		}

		var parVecs []feature.Vector
		popts := DefaultParallelOptions()
		popts.Workers = 1
		popts.BatchSize = 37
		popts.DeterministicMerge = true
		pe, err := NewParallel(popts, pol(), feature.Collect(&parVecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
		if err := pe.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := pe.SwitchStats(), fe.SwitchStats(); got != want {
			t.Errorf("%s: one-worker switch stats = %+v, inline %+v", name, got, want)
		}
		if got, want := pe.NICStats(), fe.NICStats(); got != want {
			t.Errorf("%s: one-worker NIC stats = %+v, inline %+v", name, got, want)
		}
		if err := pe.Close(); err != nil {
			t.Fatal(err)
		}

		sm, pm := renderVectors(seqVecs), renderVectors(parVecs)
		if len(sm) == 0 || len(sm) != len(pm) {
			t.Fatalf("%s: vector counts: inline %d vs one worker %d", name, len(sm), len(pm))
		}
		for i := range sm {
			if sm[i] != pm[i] {
				t.Fatalf("%s: vector sequence diverges at %d:\n  inline     %s\n  one worker %s", name, i, sm[i], pm[i])
			}
		}
	}
}

// TestProcessZeroAllocs is the hot-path allocation gate: in the warm
// steady state Process allocates nothing per packet — inline or
// through the ring, telemetry off or on, for a per-group policy (NPOD:
// the vector leaves at Flush) and for a per-packet one (Kitsune: 115
// features over a four-granularity chain leave with every packet).
// "Warm" is asymptotic (cell buffers, slabs and scratch slices grow on
// first use), so the fixture uses a cache small enough that three
// passes over the trace touch every buffer, leaving a residue of a few
// dozen allocations per pass; AllocsPerRun's integer average over a
// further pass then reads 0 with a wide margin, and any per-packet
// allocation reads ≥ 1.
func TestProcessZeroAllocs(t *testing.T) {
	tr := obsTestTrace()
	for _, tc := range []struct {
		name    string
		policy  func() *policy.Policy
		workers int
		obsOn   bool
	}{
		{"inline/bare", apps.NPOD, 0, false},
		{"inline/obs", apps.NPOD, 0, true},
		{"workers=1/bare", apps.NPOD, 1, false},
		{"workers=1/obs", apps.NPOD, 1, true},
		{"Kitsune/inline/bare", apps.Kitsune, 0, false},
		{"Kitsune/inline/obs", apps.Kitsune, 0, true},
		{"Kitsune/workers=1/bare", apps.Kitsune, 1, false},
		{"Kitsune/workers=1/obs", apps.Kitsune, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultParallelOptions()
			opts.Workers = tc.workers
			opts.Switch.NumShort, opts.Switch.NumLong, opts.Switch.FGTableSize = 512, 64, 1024
			if tc.obsOn {
				opts.Obs = obs.DefaultOptions()
				opts.Obs.Enabled = true
			}
			plan, err := policy.Compile(tc.policy())
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewFromPlan(opts, plan, func(feature.Vector) {})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for pass := 0; pass < 3; pass++ {
				for i := range tr.Packets {
					e.Process(&tr.Packets[i])
				}
			}
			e.Drain()
			i := 0
			avg := testing.AllocsPerRun(len(tr.Packets), func() {
				e.Process(&tr.Packets[i%len(tr.Packets)])
				i++
			})
			if avg != 0 {
				t.Errorf("%.0f allocs per Process in the warm steady state, want 0", avg)
			}
		})
	}
}

// TestColdPassAllocs is the gate TestProcessZeroAllocs cannot be: that
// one pre-admits every group and touches every buffer before it
// measures, so what a deployment pays the first time it sees a flow —
// the switch slot's buffers, the NIC group record and the states in it
// — was held by nothing. Here a fresh engine is fed a short-flow trace
// once and flushed; all of that must come from blocks, a small
// fraction of an allocation per packet (0.02–0.025 measured: the NIC's
// share is one record block per 64 groups).
func TestColdPassAllocs(t *testing.T) {
	tr := obsTestTrace()
	for _, workers := range []int{0, 1} {
		opts := DefaultParallelOptions()
		opts.Workers = workers
		plan, err := policy.Compile(apps.NPOD())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFromPlan(opts, plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range tr.Packets {
			e.Process(&tr.Packets[i])
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		e.Close()
		if per := float64(after.Mallocs-before.Mallocs) / float64(len(tr.Packets)); per > 0.04 {
			t.Errorf("workers=%d: %.3f allocations per packet on a cold pass of %d packets, want ≤ 0.04", workers, per, len(tr.Packets))
		}
	}
}

// TestParallelDeterministicMerge runs a sharded engine twice and
// requires identical output sequences (not just multisets).
func TestParallelDeterministicMerge(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 150
	tr := trace.Generate(cfg, 11)
	run := func() []feature.Vector {
		var vecs []feature.Vector
		popts := DefaultParallelOptions()
		popts.Workers = 3
		popts.BatchSize = 16
		popts.DeterministicMerge = true
		pe, err := NewParallel(popts, apps.NPOD(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
		if err := pe.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := pe.Close(); err != nil {
			t.Fatal(err)
		}
		return vecs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic vector count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Values) != len(b[i].Values) {
			t.Fatalf("nondeterministic vector %d", i)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("nondeterministic value at vector %d index %d", i, j)
			}
		}
	}
}

// TestParallelWireVerify runs a sharded engine with the wire codec
// enabled on every shard: per-shard encode buffers must not race
// (exercised under -race) and the output must survive the round trip.
func TestParallelWireVerify(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 120
	tr := trace.Generate(cfg, 5)
	n := 0
	popts := DefaultParallelOptions()
	popts.Workers = 4
	popts.VerifyWire = true
	pe, err := NewParallel(popts, statsPolicy(), func(feature.Vector) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		pe.Process(&tr.Packets[i])
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no vectors emitted through the wire-verify path")
	}
}

// TestParallelFlushReuse checks that the engine keeps working across
// Flush cycles (workers stay alive until Close).
func TestParallelFlushReuse(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 80
	tr := trace.Generate(cfg, 3)
	count := 0
	popts := DefaultParallelOptions()
	popts.Workers = 2
	pe, err := NewParallel(popts, apps.NPOD(), func(feature.Vector) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		before := count
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
		if err := pe.Flush(); err != nil {
			t.Fatal(err)
		}
		if count == before {
			t.Fatalf("round %d emitted no vectors", round)
		}
	}
	stats := pe.SwitchStats()
	if want := uint64(3 * len(tr.Packets)); stats.PktsIn != want {
		t.Errorf("PktsIn = %d, want %d", stats.PktsIn, want)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRejectsBadConfig pins constructor validation.
func TestParallelRejectsBadConfig(t *testing.T) {
	if _, err := NewParallel(ParallelOptions{Options: DefaultOptions()}, apps.NPOD(), func(feature.Vector) {}); err == nil {
		t.Error("zero workers accepted")
	}
	popts := DefaultParallelOptions()
	if _, err := NewParallel(popts, apps.NPOD(), nil); err == nil {
		t.Error("nil sink accepted")
	}
}

// TestDeliverRecordsWireError feeds the verify path a message the
// codec must reject and checks the engine records an error instead of
// panicking.
func TestDeliverRecordsWireError(t *testing.T) {
	opts := DefaultOptions()
	opts.VerifyWire = true
	fe, err := New(opts, statsPolicy(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	// Inconsistent cell shapes make Marshal fail with ErrCellShape.
	bad := gpv.Message{MGPV: &gpv.MGPV{Cells: []gpv.Cell{
		{Values: []uint32{1, 2}},
		{Values: []uint32{1}},
	}}}
	pr := fe.shards[0].fe
	pr.deliver(bad)
	if fe.Err() == nil {
		t.Fatal("wire error not recorded")
	}
	// First error wins; pipeline keeps operating.
	first := fe.Err()
	pr.deliver(bad)
	if fe.Err() != first {
		t.Error("first error not preserved")
	}
}

// referenceRun is a test-local channel-based reimplementation of the
// sharded engine — the shape the ring-based hand-off replaced: one
// goroutine per shard fed whole packets over a buffered Go channel,
// with the same CG-hash fastrange routing into the switch's one-row
// Process adapter. Its shard-ordered output is the differential oracle
// for the SPSC-ring engine.
func referenceRun(t *testing.T, tr *trace.Trace, workers int) []feature.Vector {
	t.Helper()
	plan, err := policy.Compile(apps.NPOD())
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]chan *packet.Packet, workers)
	vecs := make([][]feature.Vector, workers)
	fes := make([]*pair, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		chans[i] = make(chan *packet.Packet, 1024)
		fes[i], err = newPair(DefaultOptions(), plan, i, feature.Collect(&vecs[i]), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		//superfe:goroutine-ok test helper: joined via wg.Wait below
		go func(i int) {
			defer wg.Done()
			for p := range chans[i] {
				fes[i].sw.Process(p)
			}
			fes[i].flush()
		}(i)
	}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		key, _ := flowkey.KeyFor(plan.Switch.CG, p.Tuple)
		chans[shardIndex(flowkey.HashKey(key), workers)] <- p
	}
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	var out []feature.Vector
	for i := range vecs {
		out = append(out, vecs[i]...)
	}
	return out
}

// renderVectors is the order-sensitive sibling of vectorMultiset: the
// exact emission sequence, bit-exact values.
func renderVectors(vecs []feature.Vector) []string {
	out := make([]string, 0, len(vecs))
	var sb strings.Builder
	for _, v := range vecs {
		sb.Reset()
		sb.WriteString(v.Key.String())
		for _, x := range v.Values {
			sb.WriteByte('|')
			sb.WriteString(strconv.FormatFloat(x, 'x', -1, 64))
		}
		out = append(out, sb.String())
	}
	return out
}

// TestParallelRingDifferential is the hand-off rework's differential
// proof: across batch sizes and ring depths chosen to force ring
// wrap-around and park/wake on both sides (BatchSize=1 dispatches per
// packet; QueueDepth=1 is a one-slot ring), the ring engine's
// DeterministicMerge output must be byte-identical to the
// channel-based reference — same vectors, same order, bit-exact
// values — and identical across the configurations themselves.
func TestParallelRingDifferential(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 250
	tr := trace.Generate(cfg, 23)
	const workers = 3
	want := renderVectors(referenceRun(t, tr, workers))
	if len(want) == 0 {
		t.Fatal("reference run emitted no vectors")
	}
	for _, tc := range []struct{ batch, depth int }{
		{1, 1}, {1, 4}, {7, 1}, {64, 2}, {256, 4},
	} {
		t.Run(fmt.Sprintf("batch=%d/depth=%d", tc.batch, tc.depth), func(t *testing.T) {
			var vecs []feature.Vector
			popts := DefaultParallelOptions()
			popts.Workers = workers
			popts.BatchSize = tc.batch
			popts.QueueDepth = tc.depth
			popts.DeterministicMerge = true
			pe, err := NewParallel(popts, apps.NPOD(), feature.Collect(&vecs))
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Packets {
				pe.Process(&tr.Packets[i])
			}
			if err := pe.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := pe.Close(); err != nil {
				t.Fatal(err)
			}
			got := renderVectors(vecs)
			if len(got) != len(want) {
				t.Fatalf("vector count %d, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output diverges from channel reference at vector %d:\n  ring      %s\n  reference %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestParallelStreamingRunBufferMatches checks the streaming
// (non-deterministic-merge) sink path with run-buffering enabled:
// partial runs must flush at every barrier, the multiset must match
// DeterministicMerge's, and no vector may arrive after Flush returns.
func TestParallelStreamingRunBufferMatches(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 180
	tr := trace.Generate(cfg, 31)

	var detVecs []feature.Vector
	popts := DefaultParallelOptions()
	popts.Workers = 3
	popts.DeterministicMerge = true
	pe, err := NewParallel(popts, apps.NPOD(), feature.Collect(&detVecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		pe.Process(&tr.Packets[i])
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}

	var streamVecs []feature.Vector
	var afterFlush bool
	popts.DeterministicMerge = false
	pe2, err := NewParallel(popts, apps.NPOD(), func(v feature.Vector) {
		if afterFlush {
			t.Error("vector emitted after Flush returned")
		}
		// Copy: streaming vectors are arena-backed and reused.
		cp := v
		cp.Values = append([]float64(nil), v.Values...)
		streamVecs = append(streamVecs, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		pe2.Process(&tr.Packets[i])
	}
	if err := pe2.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFlush = true
	if err := pe2.Close(); err != nil {
		t.Fatal(err)
	}

	dm, sm := vectorMultiset(t, detVecs), vectorMultiset(t, streamVecs)
	if len(dm) != len(sm) {
		t.Fatalf("vector counts: deterministic %d vs streaming %d", len(dm), len(sm))
	}
	for i := range dm {
		if dm[i] != sm[i] {
			t.Fatalf("streaming run-buffer multiset diverges at %d", i)
		}
	}
}

// TestParallelObsEndpointsLive hammers every endpoint of the admin
// handler from a second goroutine while a sharded engine is
// mid-Process. Every view must be served from the barrier-refreshed
// cache (or lock-free atomics): none may touch a shard ring, run a
// barrier or read the recorder's series off the router goroutine.
// Meaningful under -race.
func TestParallelObsEndpointsLive(t *testing.T) {
	tr := obsSeriesTrace()
	popts := DefaultParallelOptions()
	popts.Workers = 2
	popts.Obs = obsTestOptions()
	pe, err := NewParallel(popts, apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	h := obs.NewHTTPHandler(pe.ObsSource())
	paths := []string{"/metrics", "/metrics.json", "/series.csv", "/timelines.json",
		"/status", "/snapshot", "/spans", "/flightrecorder"}

	var rounds atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			for _, p := range paths {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", p, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("%s mid-Process returned %d: %s", p, rr.Code, rr.Body.String())
				}
			}
			rounds.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Replay until the scraper has overlapped the run a few times (the
	// bound only guards a starved scraper on a one-CPU host).
	for pass := 0; pass < 5000 && rounds.Load() < 4; pass++ {
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if rounds.Load() < 4 {
		t.Fatalf("scraper completed only %d rounds during the replay", rounds.Load())
	}
	if len(pe.ObsTimelines()) == 0 || len(pe.ObsSeries().Snaps) == 0 || len(pe.ObsSpans()) == 0 {
		t.Fatal("a cached view is empty after Flush")
	}
}
