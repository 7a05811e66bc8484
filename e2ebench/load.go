package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"accqoc/internal/compilesvc"
	"accqoc/internal/server"
)

// result is one request as the client saw it.
type result struct {
	d draw
	// start is the offset of the send from the phase start.
	start   time.Duration
	latency time.Duration
	status  int
	err     error
	body    []byte

	// Decoded after the phase (decoding inside the loop would compete
	// with the server for the two cores).
	compile *compilesvc.CompileResponse
	circ    *compilesvc.CircuitResponse
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK && r.compile != nil }

// phaseStats counts one phase's requests by outcome.
type phaseStats struct {
	name                                  string
	attempted, succeeded, failed, refused int
}

func (p phaseStats) String() string {
	return fmt.Sprintf("phase %-8s attempted=%d succeeded=%d failed=%d refused_503=%d",
		p.name, p.attempted, p.succeeded, p.failed, p.refused)
}

// bodies pre-encodes every request body, so the load loop only sends.
type bodies struct {
	circuits bool
	plain    [][]byte
	waveform [][]byte
}

func newBodies(s spec, progs []*program) (*bodies, error) {
	b := &bodies{circuits: s.circuits}
	for _, p := range progs {
		req := server.CompileRequest{QASM: p.qasm}
		var plain, wf []byte
		var err error
		if s.circuits {
			plain, err = json.Marshal(server.CircuitRequest{CompileRequest: req})
			if err == nil {
				wf, err = json.Marshal(server.CircuitRequest{CompileRequest: req, IncludeWaveforms: true})
			}
		} else {
			plain, err = json.Marshal(req)
		}
		if err != nil {
			return nil, err
		}
		b.plain = append(b.plain, plain)
		b.waveform = append(b.waveform, wf)
	}
	return b, nil
}

func (b *bodies) path() string {
	if b.circuits {
		return "/v1/circuits/compile"
	}
	return "/v1/compile"
}

func (b *bodies) body(d draw) []byte {
	if d.waveforms && b.waveform[d.prog] != nil {
		return b.waveform[d.prog]
	}
	return b.plain[d.prog]
}

// send runs one request and records it.
func send(srv *serverProc, b *bodies, d draw, t0 time.Time) *result {
	r := &result{d: d, start: time.Since(t0)}
	r.status, r.body, r.latency, r.err = srv.do("POST", b.path(), b.body(d))
	return r
}

// runList sends every draw in list once, one after another (the set-up
// warm-up: trained in sequence, each program warm-starts from the same
// library every time, so set-up repeats its work exactly).
func runList(srv *serverProc, b *bodies, list []draw) []*result {
	out := make([]*result, len(list))
	t0 := time.Now()
	for i, d := range list {
		out[i] = send(srv, b, d, t0)
	}
	return out
}

// runTimed drives closed-loop clients taking requests from seq: until it
// runs out when bounded, else until the phase has lasted dur. Results
// come back in send order.
func runTimed(srv *serverProc, b *bodies, clients int, seq *sequence, dur time.Duration) ([]*result, []cpuSample) {
	per := make([][]*result, clients)
	t0 := time.Now()
	stop := make(chan struct{})
	samples := sampleCPU(t0, 250*time.Millisecond, stop)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq.bounded || time.Since(t0) < dur {
				d, ok := seq.draw()
				if !ok {
					return
				}
				per[c] = append(per[c], send(srv, b, d, t0))
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	var all []*result
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all, <-samples
}

// decode parses the bodies of successful responses and counts outcomes.
func decode(name string, rs []*result, circuits bool) phaseStats {
	ps := phaseStats{name: name, attempted: len(rs)}
	for _, r := range rs {
		switch {
		case r.err != nil:
			ps.failed++
			continue
		case r.status == http.StatusServiceUnavailable:
			ps.refused++
			continue
		case r.status != http.StatusOK:
			ps.failed++
			continue
		}
		if circuits {
			var c compilesvc.CircuitResponse
			if err := json.Unmarshal(r.body, &c); err != nil {
				r.err = err
				ps.failed++
				continue
			}
			r.circ = &c
			r.compile = &c.Compile
		} else {
			var c compilesvc.CompileResponse
			if err := json.Unmarshal(r.body, &c); err != nil {
				r.err = err
				ps.failed++
				continue
			}
			r.compile = &c
		}
		ps.succeeded++
	}
	return ps
}
