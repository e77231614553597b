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
	"superfe/internal/obs"
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
	tr := obsTestTrace()
	popts := DefaultParallelOptions()
	popts.Obs = obsTestOptions()
	popts.Obs.SpanSampleEvery = 4
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
// it, never 200 with an empty body.
func TestAdminHandlerErrorPaths(t *testing.T) {
	h := obs.NewHTTPHandler(obs.Source{Scrape: func() *obs.Snapshot { return nil }})
	for path, hint := range map[string]string{
		"/series.csv":     "SnapshotInterval",
		"/timelines.json": "TraceSampleEvery",
		"/spans":          "SpanSampleEvery",
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

// TestStatusHealthTransitions drives the pressure controller through
// a full excursion: island stalls with a tight window and a narrow
// hysteresis band make the health model visit degraded and return to
// healthy within one fixed-seed trace, all visible through Status.
func TestStatusHealthTransitions(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 1200
	tr := trace.Generate(cfg, 31)

	// Island stalls are shard-wide (scope does not gate them), so the
	// only road back to healthy is a window with zero stalls. A 2%
	// stall rate makes zero-stall windows common (≈ 0.98^64 ≈ 27% of
	// windows) while occasional bursts still cross the tight enter
	// threshold — the fixed seed pins one full excursion.
	opts := DefaultOptions()
	opts.Faults = &faults.Plan{
		Seed:               19,
		Rate:               0.02,
		Kinds:              faults.Set(0).With(faults.KindIslandStall),
		DegradeWindow:      64,
		DegradeEnterCycles: 8_192,
		DegradeExitCycles:  4_096,
	}
	fe, err := New(opts, statsPolicy(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}

	var seen []string
	observe := func() {
		h := fe.Status().Health
		if len(seen) == 0 || seen[len(seen)-1] != h {
			seen = append(seen, h)
		}
	}
	observe()
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
		observe()
	}
	fe.Flush()
	observe()

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
	if fe.FaultStats().DegradedTransitions < 2 {
		t.Fatalf("expected enter+exit transitions, got %d (%v)",
			fe.FaultStats().DegradedTransitions, seen)
	}
	t.Logf("health excursion: %v", seen)
}
