package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"accqoc"
	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/precompile"
	"accqoc/internal/server"
)

// libCounters are the store and seed-index counters of
// GET /v1/library/stats that the benchmark takes deltas of.
type libCounters struct {
	Hits, Misses, Evictions, Trainings, Joined int64
	SeedLookups, SeedSeeded                    int64
}

func (a libCounters) sub(b libCounters) libCounters {
	return libCounters{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Evictions: a.Evictions - b.Evictions, Trainings: a.Trainings - b.Trainings,
		Joined:      a.Joined - b.Joined,
		SeedLookups: a.SeedLookups - b.SeedLookups, SeedSeeded: a.SeedSeeded - b.SeedSeeded,
	}
}

func snap(srv *serverProc) (libCounters, error) {
	st, err := srv.stats()
	if err != nil {
		return libCounters{}, err
	}
	c := libCounters{
		Hits: st.Library.Hits, Misses: st.Library.Misses, Evictions: st.Library.Evictions,
		Trainings: st.Library.Trainings, Joined: st.Library.DedupSuppressed,
	}
	if st.SeedIndex != nil {
		c.SeedLookups, c.SeedSeeded = st.SeedIndex.Lookups, st.SeedIndex.Seeded
	}
	return c, nil
}

// rollProbe boots a fresh server with the default flags, trains the warm
// universe, opens one drift calibration and polls GET /v1/devices until
// the roll reports every planned item done, skipped or failed. It returns
// the roll's status and the time from the accepted calibration to that
// report. Traced runs use it for the devreg layer, which no timed phase
// exercises.
func rollProbe(bin string, timeout time.Duration) (devreg.RollStatus, time.Duration, error) {
	var none devreg.RollStatus
	srv, err := bootServer(bin, nil)
	if err != nil {
		return none, 0, err
	}
	defer srv.stop()
	progs := warmUniverse()
	b, err := newBodies(warmHits, progs)
	if err != nil {
		return none, 0, err
	}
	for i := range progs {
		if r := send(srv, b, draw{prog: i}, time.Now()); r.err != nil || r.status != http.StatusOK {
			return none, 0, fmt.Errorf("roll probe warm-up: status %d: %v", r.status, r.err)
		}
	}
	body, _ := json.Marshal(devreg.CalibrationUpdate{DriftPct: driftPct})
	st, data, _, err := srv.do("POST", "/v1/devices/"+deviceName+"/calibrate", body)
	if err != nil || st != http.StatusOK {
		return none, 0, fmt.Errorf("calibrate: status %d: %v %s", st, err, data)
	}
	accepted := time.Now()
	var cal server.CalibrateResponse
	if err := json.Unmarshal(data, &cal); err != nil {
		return none, 0, fmt.Errorf("calibrate response: %w", err)
	}
	for time.Since(accepted) < timeout {
		devs, err := srv.devices()
		if err != nil {
			return none, 0, err
		}
		for _, d := range devs.Devices {
			r := d.Recompile
			if d.Name == deviceName && r.Epoch == cal.Epoch && !r.Active && r.Done+r.Skipped+r.Failed >= r.Planned {
				return r, time.Since(accepted), nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return none, 0, fmt.Errorf("calibration roll not finished within %s", timeout)
}

// importLibrary reads the library set-up warmed back through the circuit
// endpoint with inlined waveforms, one request per warm-up program: each
// slot's canonical waveform and duration become an entry under the slot
// group's canonical key, so an in-process replay starts from the very
// pulses the server serves.
func importLibrary(srv *serverProc, warm []*program) ([]*precompile.Entry, error) {
	comp := accqoc.New(accqoc.Options{})
	seen := map[string]bool{}
	var out []*precompile.Entry
	for _, p := range warm {
		plan, err := comp.PlanGroups(p.circ)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.CircuitRequest{
			CompileRequest: server.CompileRequest{QASM: p.qasm}, IncludeWaveforms: true,
		})
		if err != nil {
			return nil, err
		}
		st, data, _, err := srv.do("POST", "/v1/circuits/compile", body)
		if err != nil || st != http.StatusOK {
			return nil, fmt.Errorf("library import: status %d: %v", st, err)
		}
		var c compilesvc.CircuitResponse
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, err
		}
		for _, slot := range c.Schedule {
			key := plan.Keys[slot.Group]
			wf := c.Waveforms[slot.Waveform]
			if slot.Waveform == "" || wf == nil || seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, &precompile.Entry{
				Key: key, NumQubits: len(slot.Qubits), Pulse: wf, LatencyNs: slot.DurationNs,
			})
		}
	}
	return out, nil
}
