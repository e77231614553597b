package obs

import (
	"net/http"
	"net/http/pprof"
)

// Source is what an engine exposes to the HTTP handler. Every function
// must be safe to call from any goroutine while the pipeline runs:
// Scrape reads the registries lock-free with atomics; everything else
// is served from the engine's one mutex-guarded cache of immutable
// views, refreshed at quiescence points (barriers, Flush/Drain), with
// Status overlaying live health and clock. The cached views are
// therefore exact as of the last barrier. Nil functions mark disabled
// facilities; their endpoints answer 404. Series, Timelines and Spans
// are nil exactly when the engine's telemetry is off.
type Source struct {
	Scrape    func() *Snapshot
	Series    func() *Series
	Timelines func() []Timeline
	Status    func() *StatusReport
	Spans     func() []BatchSpan
	FlightRec func() *FRDump
	// Pprof mounts net/http/pprof under /debug/pprof/ — the live
	// profiling half of the admin surface.
	Pprof bool
}

// obsDisabled is the 404 text of every endpoint that needs telemetry.
const obsDisabled = "telemetry disabled (set Obs.Enabled)"

// NewHTTPHandler serves the telemetry and admin surface over HTTP:
//
//	/metrics         Prometheus text exposition (scrape target)
//	/metrics.json    the same snapshot as JSON
//	/series.csv      the interval time-series as CSV
//	/timelines.json  reconstructed flow-lifecycle timelines
//	/status          health model + per-shard pressure counters
//	/snapshot        one-stop bundle: status + metrics + spans + flight recorder
//	/spans           sampled batch spans (router→ring→switch→NIC)
//	/flightrecorder  the current flight-recorder dump
//	/debug/pprof/    live CPU/heap/goroutine profiling (Pprof only)
func NewHTTPHandler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, src.Scrape()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteJSON(w, src.Scrape()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/series.csv", func(w http.ResponseWriter, req *http.Request) {
		if src.Series == nil {
			http.Error(w, obsDisabled, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		if err := WriteSeriesCSV(w, src.Series()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/timelines.json", func(w http.ResponseWriter, req *http.Request) {
		if src.Timelines == nil {
			http.Error(w, obsDisabled, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteTimelinesJSON(w, src.Timelines()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		if src.Status == nil {
			http.Error(w, "status unavailable (source has no engine)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteStatusJSON(w, src.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteSnapshotBundle(w, src); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		if src.Spans == nil {
			http.Error(w, obsDisabled, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteSpansJSON(w, src.Spans()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		if src.FlightRec == nil {
			http.Error(w, "flight recorder disabled (clear FlightRec.Disable)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteFlightRecJSON(w, src.FlightRec()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if src.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
