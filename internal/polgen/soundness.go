package polgen

// The planprove soundness cross-check: the abstract interpreter's
// verdicts are held against the simulators' saturation counters in
// both directions. A plan proved saturation-free must never trip a
// clamp on any engine run whose faults leave payloads intact (checked
// by runner.drive on every leg), and every confirmed value-range
// witness must replay — through a fresh engine built from the very
// configurations the proof assumed — to at least one clamp trip
// (replayWitnesses).

import (
	"fmt"

	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/planprove"
	"superfe/internal/policy"
)

// replayWitnesses feeds every confirmed Warn-or-above witness through
// a fresh sequential engine on the spec's own hardware envelope and
// requires a saturation counter to move: a witness is the prover's
// claim that the violation is concretely reachable, and a replay that
// trips nothing means either the trace synthesis or the transfer
// functions are lying. Returns the replay count and the first
// failure (empty when all witnesses held).
func replayWitnesses(spec Spec, pol *policy.Policy, proof *planprove.Result) (int, string) {
	replayed := 0
	for _, f := range proof.Findings {
		w := f.Witness
		if w == nil || !w.Confirmed || f.Sev < planprove.SevWarn {
			continue
		}
		replayed++
		var vecs []feature.Vector
		fe, err := core.New(core.Options{
			Switch:     spec.SwitchConfig(),
			NIC:        spec.NICConfig(),
			VerifyWire: true,
		}, pol, feature.Collect(&vecs))
		if err != nil {
			return replayed, "witness replay engine: " + err.Error()
		}
		for i := range w.Packets {
			p := w.Packets[i]
			fe.Process(&p)
		}
		fe.Flush()
		if err := fe.Err(); err != nil {
			return replayed, fmt.Sprintf("witness replay for %s %s: %v", f.Class, f.Site, err)
		}
		run := engineRun{sw: fe.SwitchStats(), nic: fe.NICStats()}
		if run.tripped() == 0 {
			return replayed, fmt.Sprintf(
				"%s witness at %s (value %d against bound %d, %d packet(s)) replayed without tripping any saturation clamp",
				f.Class, f.Site, w.Value, w.Bound, len(w.Packets))
		}
	}
	return replayed, ""
}
