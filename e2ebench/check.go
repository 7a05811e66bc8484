package main

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"accqoc"
	"accqoc/internal/cmat"
	"accqoc/internal/compilesvc"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
)

// physicsSamples bounds the inlined waveforms verified per run.
const physicsSamples = 8

// check verifies the served outputs and records every violation.
func check(st *runState) {
	for _, r := range st.timed {
		if !r.ok() {
			st.fail("request %d (%s) failed: status %d %v", r.d.prog, st.progs[r.d.prog].name, r.status, r.err)
		}
	}
	if st.spec.hitsOnly {
		checkRepeatable(st)
	}
	if st.spec.circuits {
		checkSchedules(st)
		checkPhysics(st)
	}
}

// checkRepeatable requires every response to be warm_served and to equal
// the first response for the same program, ignoring compile_millis.
func checkRepeatable(st *runState) {
	first := map[int]compilesvc.CompileResponse{}
	for _, r := range st.timed {
		if !r.ok() {
			continue
		}
		c := *r.compile
		name := st.progs[r.d.prog].name
		if !c.WarmServed {
			st.fail("%s served with warm_served=false", name)
			continue
		}
		c.CompileMillis = 0
		f, seen := first[r.d.prog]
		if !seen {
			first[r.d.prog] = c
			continue
		}
		if c != f {
			st.fail("%s: response differs from its first warm response", name)
		}
	}
}

// checkSchedules requires every circuit schedule to keep each qubit's
// slots disjoint and to end exactly at the reported qoc_latency_ns.
func checkSchedules(st *runState) {
	for _, r := range st.timed {
		if !r.ok() || r.circ == nil {
			continue
		}
		c := r.circ
		name := st.progs[r.d.prog].name
		if c.MakespanNs != c.Compile.QOCLatencyNs {
			st.fail("%s: makespan %v != qoc_latency_ns %v", name, c.MakespanNs, c.Compile.QOCLatencyNs)
		}
		type iv struct{ s, e float64 }
		perQubit := map[int][]iv{}
		end := 0.0
		for _, sl := range c.Schedule {
			e := sl.StartNs + sl.DurationNs
			end = math.Max(end, e)
			for _, q := range sl.Qubits {
				perQubit[q] = append(perQubit[q], iv{sl.StartNs, e})
			}
		}
		if math.Abs(end-c.MakespanNs) > 1e-9*math.Max(1, end) {
			st.fail("%s: last slot ends at %v, makespan %v", name, end, c.MakespanNs)
		}
		for q, ivs := range perQubit {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
			for i := 1; i < len(ivs); i++ {
				if ivs[i].s < ivs[i-1].e-1e-9 {
					st.fail("%s: slots overlap on qubit %d", name, q)
					break
				}
			}
		}
	}
}

// checkPhysics propagates a seeded sample of inlined waveforms segment by
// segment with cmat.Expm and requires each to implement its slot group's
// canonical unitary (from PlanGroups on the same program, orientation as
// the slot's mirrored flag says) within the target infidelity.
func checkPhysics(st *runState) {
	type sample struct {
		prog int
		slot compilesvc.ScheduledPulseWire
		wf   *pulse.Pulse
	}
	var cands []sample
	seen := map[string]bool{}
	for _, r := range st.timed {
		if !r.ok() || r.circ == nil || r.circ.Waveforms == nil {
			continue
		}
		for _, sl := range r.circ.Schedule {
			if sl.Waveform == "" || seen[sl.Waveform] {
				continue
			}
			seen[sl.Waveform] = true
			cands = append(cands, sample{prog: r.d.prog, slot: sl, wf: r.circ.Waveforms[sl.Waveform]})
		}
	}
	if len(cands) == 0 {
		st.fail("no inlined waveform to verify")
		return
	}
	rng := rand.New(rand.NewSource(st.seed))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	comp := accqoc.New(accqoc.Options{})
	plans := map[int]*accqoc.GroupPlan{}
	worst := 0.0
	n := min(physicsSamples, len(cands))
	for _, c := range cands[:n] {
		name := st.progs[c.prog].name
		plan, ok := plans[c.prog]
		if !ok {
			var err error
			if plan, err = comp.PlanGroups(st.progs[c.prog].circ); err != nil {
				st.fail("%s: plan: %v", name, err)
				continue
			}
			plans[c.prog] = plan
		}
		if c.wf == nil {
			st.fail("%s: waveform %s referenced but not inlined", name, c.slot.Waveform)
			continue
		}
		if c.slot.Mirrored != plan.Swapped[c.slot.Group] {
			st.fail("%s: slot %d mirrored=%v, plan says %v", name, c.slot.Group, c.slot.Mirrored, plan.Swapped[c.slot.Group])
			continue
		}
		u, err := plan.Prepared.Grouping.Groups[c.slot.Group].Unitary()
		if err != nil {
			st.fail("%s: group unitary: %v", name, err)
			continue
		}
		target := precompile.CanonicalUnitary(u)
		sys, err := hamiltonian.ForQubits(len(c.slot.Qubits), hamiltonian.Config{})
		if err != nil {
			st.fail("%s: hamiltonian: %v", name, err)
			continue
		}
		got, err := propagateExpm(sys, c.wf)
		if err != nil {
			st.fail("%s: propagate: %v", name, err)
			continue
		}
		inf := 1 - traceFidelity(got, target)
		worst = math.Max(worst, inf)
		if inf > targetInfidelity+1e-9 {
			st.fail("%s: waveform %s infidelity %.3g exceeds %.0e", name, c.slot.Waveform, inf, targetInfidelity)
		}
	}
	st.physics = physicsResult{checked: n, worst: worst}
}

// physicsResult summarizes the waveform verification.
type physicsResult struct {
	checked int
	worst   float64
}

// propagateExpm multiplies exp(−i·H_k·dt) over the pulse's segments, later
// segments on the left.
func propagateExpm(sys *hamiltonian.System, p *pulse.Pulse) (*cmat.Matrix, error) {
	u := cmat.Identity(sys.Dim)
	amps := make([]float64, len(sys.Controls))
	for s := 0; s < p.Segments(); s++ {
		for c := range amps {
			amps[c] = p.Amps[c][s]
		}
		h := sys.Assemble(amps)
		step, err := cmat.Expm(cmat.Scale(complex(0, -p.Dt), h))
		if err != nil {
			return nil, err
		}
		u = cmat.Mul(step, u)
	}
	return u, nil
}

// traceFidelity is |Tr(U†V)|²/d², the phase-insensitive gate fidelity.
func traceFidelity(u, v *cmat.Matrix) float64 {
	var tr complex128
	for i := 0; i < u.Rows; i++ {
		for k := 0; k < u.Rows; k++ {
			tr += cmplx.Conj(u.At(k, i)) * v.At(k, i)
		}
	}
	d := float64(u.Rows)
	a := cmplx.Abs(tr)
	return a * a / (d * d)
}
