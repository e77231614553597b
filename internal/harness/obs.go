package harness

import (
	"io"
	"os"
	"path/filepath"

	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// ObsDump replays pol over tr with the telemetry subsystem enabled
// and writes the collected artefacts into dir:
//
//	metrics.prom    final merged snapshot, Prometheus text format
//	metrics.json    the same snapshot as JSON
//	series.csv      logical-clock interval time-series (aggregation
//	                ratio, eviction mix, occupancy, shard skew, ...)
//	timelines.json  sampled flow-lifecycle timelines
//
// workers > 1 shards the engine across worker goroutines with
// deterministic merge (one worker runs it inline); snapshots are
// captured at barrier quiescence, so fixed-seed runs produce
// byte-identical files at any worker count's own configuration.
func ObsDump(dir string, pol *policy.Policy, tr *trace.Trace, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sink := func(feature.Vector) {}
	opts := core.DefaultOptions()
	opts.Obs.Enabled = true
	var fe *core.Engine
	var err error
	if workers > 1 {
		popts := core.DefaultParallelOptions()
		popts.Options = opts
		popts.Workers = workers
		popts.DeterministicMerge = true
		fe, err = core.NewParallel(popts, pol, sink)
	} else {
		fe, err = core.New(opts, pol, sink)
	}
	if err != nil {
		return err
	}
	defer fe.Close()
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	if err := fe.Flush(); err != nil {
		return err
	}
	src := fe.ObsSource()
	type dump struct {
		name  string
		write func(io.Writer) error
	}
	dumps := []dump{
		{"metrics.prom", func(w io.Writer) error { return obs.WritePrometheus(w, src.Scrape()) }},
		{"metrics.json", func(w io.Writer) error { return obs.WriteJSON(w, src.Scrape()) }},
	}
	if src.Series != nil {
		dumps = append(dumps, dump{"series.csv", func(w io.Writer) error { return obs.WriteSeriesCSV(w, src.Series()) }})
	}
	if src.Timelines != nil {
		dumps = append(dumps, dump{"timelines.json", func(w io.Writer) error { return obs.WriteTimelinesJSON(w, src.Timelines()) }})
	}
	for _, d := range dumps {
		f, err := os.Create(filepath.Join(dir, d.name))
		if err != nil {
			return err
		}
		if err := d.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
