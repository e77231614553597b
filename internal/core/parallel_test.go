package core

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

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
	if d := feature.Diff("first run", run(), "second run", run(), true); d != "" {
		t.Fatal(d)
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
