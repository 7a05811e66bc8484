package compilesvc

// The whole-circuit tail: Algorithm 3 scheduling over a batch's resolved
// entries, conformance validation, and the wire-format schedule.

import (
	"fmt"
	"time"

	"accqoc"
	"accqoc/internal/devreg"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
)

// assembleCircuit is the schedule tail of a circuit request: Algorithm 3
// assembly over the resolved entries, conformance validation, and the
// wire-format schedule with content-addressed waveform refs.
func assembleCircuit(plan *accqoc.GroupPlan, ns *devreg.Namespace, resp *CompileResponse, entries map[string]keyOutcome, inlineWaveforms bool, tr *obs.Trace, begin time.Time) (*CircuitResponse, error) {
	sp := tr.StartSpan("assemble")
	res := plan.Result()
	dev := ns.Comp.Options().Device
	sched, err := accqoc.AssembleSchedule(res, dev.Calibration, func(key string) (*precompile.Entry, bool) {
		e := entries[key].entry
		return e, e != nil
	})
	if err != nil {
		return nil, err
	}
	res.OverallLatencyNs = sched.MakespanNs
	sp.End()
	// Conformance oracle: a pulse program violating its own invariants
	// (dependency order, per-qubit exclusivity, two-sided makespan) must
	// never reach a waveform generator — fail the request instead.
	vsp := tr.StartSpan("validate")
	if verr := sched.Validate(); verr != nil {
		return nil, fmt.Errorf("scheduled pulse program failed conformance: %w", verr)
	}
	vsp.End()

	finalizeResponse(resp, plan.Prepared.Physical, dev, sched.MakespanNs, begin)

	out := &CircuitResponse{
		Compile:    *resp,
		MakespanNs: sched.MakespanNs,
		Schedule:   make([]ScheduledPulseWire, 0, len(sched.Pulses)),
	}
	// refs dedups the hash work: one MarshalBinary+SHA-256 per unique
	// entry, however many occurrences reference it.
	refs := make(map[string]string, len(entries))
	for _, sp := range sched.Pulses {
		slot := ScheduledPulseWire{
			Group:      sp.Group,
			Qubits:     sp.Qubits,
			StartNs:    sp.StartNs,
			DurationNs: sp.DurationNs,
			Mirrored:   sp.Mirrored,
		}
		if e := entries[sp.Key].entry; sp.Key != "" && e != nil && e.Pulse != nil {
			ref, cached := refs[sp.Key]
			if !cached {
				ref = WaveformRef(e)
				refs[sp.Key] = ref
			}
			slot.Waveform = ref
			if inlineWaveforms {
				if out.Waveforms == nil {
					out.Waveforms = map[string]*pulse.Pulse{}
				}
				out.Waveforms[ref] = e.Pulse
			}
		}
		out.Schedule = append(out.Schedule, slot)
	}
	return out, nil
}
