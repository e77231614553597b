package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/trace"
)

// Admin-surface tests: golden files pin the /status, /flightrecorder
// and (normalized) span output shapes; the error-path test pins the
// handler's 404 contract; the transition test drives the health model
// through a full healthy → degraded → healthy excursion.

// adminTestEngine runs a fixed-seed faulted trace through an inline
// engine — corruption and truncation at rate 0.5 make quarantines (and
// the quarantine-spike anomaly) part of the deterministic fixture.
func adminTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := trace.CampusConfig
	cfg.Flows = 400
	tr := trace.Generate(cfg, 13)
	opts := DefaultOptions()
	opts.Faults = &faults.Plan{
		Seed:  3,
		Rate:  0.5,
		Kinds: faults.Set(0).With(faults.KindCorrupt).With(faults.KindTruncate),
	}
	fe, err := New(opts, statsPolicy(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	return fe
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (regenerate with -update if intended); got:\n%s", golden, got)
	}
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

// TestAdminStatusGolden pins the /status endpoint's exact bytes for
// the fixed-seed faulted fixture, served over the real handler.
func TestAdminStatusGolden(t *testing.T) {
	fe := adminTestEngine(t)
	h := obs.NewHTTPHandler(fe.ObsSource())
	rr := get(t, h, "/status")
	if rr.Code != http.StatusOK {
		t.Fatalf("/status returned %d: %s", rr.Code, rr.Body.String())
	}
	if fe.FaultStats().Quarantined == 0 {
		t.Fatal("fixture quarantined nothing — the status report is vacuous")
	}
	checkGolden(t, "admin_status.golden", rr.Body.Bytes())
}

// TestAdminFlightRecGolden pins the /flightrecorder dump for the same
// fixture. The inline engine's event stream is fully deterministic
// (the clocks are logical, the triggers seeded), so the dump —
// including the quarantine-spike anomaly marker — is golden-stable.
func TestAdminFlightRecGolden(t *testing.T) {
	fe := adminTestEngine(t)
	h := obs.NewHTTPHandler(fe.ObsSource())
	rr := get(t, h, "/flightrecorder")
	if rr.Code != http.StatusOK {
		t.Fatalf("/flightrecorder returned %d: %s", rr.Code, rr.Body.String())
	}
	var dump struct {
		Reason string `json:"reason"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/flightrecorder is not JSON: %v", err)
	}
	if dump.Reason != "on-demand" || len(dump.Events) == 0 {
		t.Fatalf("implausible dump: reason=%q events=%d", dump.Reason, len(dump.Events))
	}
	checkGolden(t, "admin_flightrec.golden", rr.Body.Bytes())
}

// TestAdminSpansGolden pins the sharded engine's span output shape:
// a fixed-seed deterministic-merge run samples a deterministic set of
// batches, and every span field except the scheduling-domain trio
// (enqueue occupancy, producer parks, consumer wake — zeroed here) is
// reproducible.
func TestAdminSpansGolden(t *testing.T) {
	tr := obsSeriesTrace()
	popts := DefaultParallelOptions()
	popts.Obs = obsTestOptions()
	popts.Workers = 4
	popts.DeterministicMerge = true
	pe, err := NewParallel(popts, apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	for i := range tr.Packets {
		pe.Process(&tr.Packets[i])
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	// The live /spans endpoint serves the same data unnormalized.
	if rr := get(t, obs.NewHTTPHandler(pe.ObsSource()), "/spans"); rr.Code != http.StatusOK {
		t.Fatalf("/spans returned %d: %s", rr.Code, rr.Body.String())
	}
	spans := pe.ObsSpans()
	if len(spans) == 0 {
		t.Fatal("no spans sampled")
	}
	for i := range spans {
		spans[i].EnqueueOcc = 0
		spans[i].ProdParks = 0
		spans[i].WokeConsumer = false
	}
	var buf bytes.Buffer
	if err := obs.WriteSpansJSON(&buf, spans); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "admin_spans.golden", buf.Bytes())
}

// TestAdminHandlerErrorPaths pins the 404 contract: every optional
// endpoint must answer 404 with a hint naming the knob that enables
// it, never 200 with an empty body. The telemetry endpoints share
// one: Obs.Enabled.
func TestAdminHandlerErrorPaths(t *testing.T) {
	h := obs.NewHTTPHandler(obs.Source{Scrape: func() *obs.Snapshot { return nil }})
	for path, hint := range map[string]string{
		"/series.csv":     "Obs.Enabled",
		"/timelines.json": "Obs.Enabled",
		"/spans":          "Obs.Enabled",
		"/flightrecorder": "flight recorder",
		"/status":         "status",
	} {
		rr := get(t, h, path)
		if rr.Code != http.StatusNotFound {
			t.Errorf("%s on a bare source returned %d, want 404", path, rr.Code)
		}
		if !strings.Contains(rr.Body.String(), hint) {
			t.Errorf("%s error %q does not mention %q", path, rr.Body.String(), hint)
		}
	}
	// Pprof is opt-in: without it the debug tree must not resolve.
	if rr := get(t, h, "/debug/pprof/cmdline"); rr.Code != http.StatusNotFound {
		t.Errorf("/debug/pprof/cmdline without Pprof returned %d, want 404", rr.Code)
	}
	if rr := get(t, obs.NewHTTPHandler(obs.Source{Pprof: true}), "/debug/pprof/cmdline"); rr.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline with Pprof returned %d, want 200", rr.Code)
	}
}

// excursion is the controller state at the checkpoints of
// degradeExcursion: the close of the first and second pressure
// windows, the last calm packet before the third window closes, and
// that close.
type excursion struct{ enter, stay, beforeExit, exit controllerState }

type controllerState struct {
	health      string
	transitions uint64
	degraded    bool
}

func stateOf(fe *Engine) controllerState {
	return controllerState{fe.Status().Health, fe.FaultStats().DegradedTransitions, fe.Degraded()}
}

// degradeExcursion drives the pressure controller at its production
// constants (degradeWindow, degradeEnterCycles, degradeExitCycles,
// stallCycles) through enter, stay and exit on one fixed-seed run,
// calling observe after every packet. Island stalls charge only MGPV
// deliveries while every delivered message, FG updates included,
// advances the window, so the traffic sets the pressure at a fixed
// 5% stall rate. The switch geometry is the test's lever: 16 CG slots
// and no long buffers.
//   - Pressure: 256 hosts in turn collide in the 16 slots, one MGPV per
//     packet, ~200 stall hits per window against the 64 that enter.
//     It runs until two windows have closed (enter, then stay) and
//     the run sits exactly on a window boundary.
//   - Calm: the last host's packets on fresh sockets for exactly one
//     window. Each is one FG update (no island stall) and a cell its
//     full short buffer sheds, so the window closes at zero stall
//     cycles and the controller exits.
func degradeExcursion(t *testing.T, observe func(*Engine)) excursion {
	t.Helper()
	opts := DefaultOptions()
	opts.Switch.NumShort = 16
	opts.Switch.NumLong = 0
	opts.FlightRec.Disable = true // keeps the per-packet barriers cheap
	opts.Faults = &faults.Plan{Seed: 19, Rate: 0.05, Kinds: faults.Set(0).With(faults.KindIslandStall)}
	pol := policy.New("host-socket").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(streaming.FSum)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Reduce("size", policy.RF(streaming.FMean)).
		Collect().
		MustBuild()
	fe, err := New(opts, pol, func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	var ts int64
	send := func(src uint32, sport uint16) uint64 {
		ts += 1000
		p := packet.Packet{Timestamp: ts, Size: 100, Tuple: flowkey.FiveTuple{
			SrcIP: src, DstIP: 0xfffffff0, SrcPort: sport, DstPort: 80, Proto: flowkey.ProtoTCP}}
		fe.Process(&p)
		delivered := fe.SwitchStats().MsgsOut // quiesces: the packet has run
		observe(fe)
		return delivered // every emitted message is delivered
	}

	var ex excursion
	observe(fe)
	host := uint32(0)
	for delivered := uint64(0); delivered < 2*degradeWindow || delivered%degradeWindow != 0; {
		if host++; host > 1<<16 {
			t.Fatalf("pressure traffic delivered only %d messages", delivered)
		}
		before := delivered
		delivered = send(1+host%256, 1000)
		if w := delivered / degradeWindow; w > before/degradeWindow { // a window closed
			switch w {
			case 1:
				ex.enter = stateOf(fe)
			case 2:
				ex.stay = stateOf(fe)
			}
		}
	}
	for i := 0; i < degradeWindow; i++ {
		if i == degradeWindow-1 {
			ex.beforeExit = stateOf(fe)
		}
		send(1+host%256, uint16(2000+i))
	}
	ex.exit = stateOf(fe)
	return ex
}

// TestDegradeControllerAtProductionThresholds holds the controller's
// hysteresis at the constants production runs: one pressure window
// enters degraded mode, a second keeps it, and one stall-free window
// leaves it.
func TestDegradeControllerAtProductionThresholds(t *testing.T) {
	ex := degradeExcursion(t, func(*Engine) {})
	degraded := func(h string) bool { return h == obs.HealthDegraded.String() || h == obs.HealthShedding.String() }
	if !ex.enter.degraded || ex.enter.transitions != 1 || !degraded(ex.enter.health) {
		t.Errorf("first pressure window did not enter degraded mode: %+v", ex.enter)
	}
	if !ex.stay.degraded || ex.stay.transitions != 1 || !degraded(ex.stay.health) {
		t.Errorf("second pressure window did not stay degraded: %+v", ex.stay)
	}
	if !ex.beforeExit.degraded || ex.beforeExit.transitions != 1 {
		t.Errorf("controller left degraded mode before the calm window closed: %+v", ex.beforeExit)
	}
	if ex.exit.degraded || ex.exit.transitions != 2 || ex.exit.health != obs.HealthHealthy.String() {
		t.Errorf("stall-free window did not exit to healthy: %+v", ex.exit)
	}
}

// TestStatusHealthTransitions drives the pressure controller
// through a full excursion at its production constants: the health
// model visits degraded and returns to healthy within one fixed-seed
// run, all visible through Status.
func TestStatusHealthTransitions(t *testing.T) {
	var seen []string
	ex := degradeExcursion(t, func(e *Engine) {
		h := e.Status().Health
		if len(seen) == 0 || seen[len(seen)-1] != h {
			seen = append(seen, h)
		}
	})

	if seen[0] != obs.HealthHealthy.String() {
		t.Fatalf("engine not healthy at start: %v", seen)
	}
	firstDeg, lastHealthy := -1, -1
	for i, h := range seen {
		if firstDeg < 0 && (h == obs.HealthDegraded.String() || h == obs.HealthShedding.String()) {
			firstDeg = i
		}
		if h == obs.HealthHealthy.String() {
			lastHealthy = i
		}
	}
	if firstDeg < 0 {
		t.Fatalf("health never reached degraded: %v", seen)
	}
	if lastHealthy < firstDeg {
		t.Fatalf("health never recovered after degrading: %v", seen)
	}
	if ex.exit.transitions < 2 {
		t.Fatalf("expected enter+exit transitions, got %d (%v)", ex.exit.transitions, seen)
	}
	t.Logf("health excursion: %v", seen)
}
