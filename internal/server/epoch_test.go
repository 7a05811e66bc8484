package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

// legacyCompileResponseKeys is the exact JSON key set of the pre-registry
// compile response — the single-device wire format that must be preserved
// byte for byte when no device field is sent and no calibration has
// happened.
var legacyCompileResponseKeys = []string{
	"qubits", "gates", "total_groups", "covered_groups", "coverage_rate",
	"uncovered_unique", "failed_groups", "warm_served",
	"training_iterations", "warm_seeded", "seed_distance",
	"qoc_latency_ns", "gate_latency_ns", "latency_reduction",
	"estimated_fidelity", "compile_millis",
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServerDefaultWireFormatUnchanged pins the single-device equivalence:
// with no device field and no calibrate call, a compile response carries
// exactly the legacy JSON keys — no device, no epoch, nothing new leaks
// into the pre-registry wire format.
func TestServerDefaultWireFormatUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{QASM: rxAProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := append([]string(nil), legacyCompileResponseKeys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("compile response keys changed:\n got %v\nwant %v", got, want)
	}
}

// multiDeviceServer serves lin3 (default) plus a linear-5 profile.
func multiDeviceServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Compile:    fastOpts(),
		DeviceName: "lin3",
		Devices:    []devreg.Profile{{Name: "lin5", Device: topology.Linear(5)}},
		Workers:    4,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func TestServerMultiDeviceRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s, ts := multiDeviceServer(t)

	// Unknown device: 400 before any work.
	resp, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{QASM: rxAProgram, Device: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown device status %d: %s", resp.StatusCode, raw)
	}

	// The same program lands in each device's own namespace.
	for _, dev := range []string{"", "lin5"} {
		resp, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{QASM: rxAProgram, Device: dev})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("device %q status %d: %s", dev, resp.StatusCode, raw)
		}
		var out CompileResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Device != dev {
			t.Fatalf("device echo %q, want %q", out.Device, dev)
		}
	}
	def, err := s.Registry().Current("")
	if err != nil {
		t.Fatal(err)
	}
	lin5, err := s.Registry().Current("lin5")
	if err != nil {
		t.Fatal(err)
	}
	if def.Store == lin5.Store {
		t.Fatal("devices share a store")
	}
	if def.Store.Len() == 0 || lin5.Store.Len() == 0 {
		t.Fatalf("per-device stores: default %d entries, lin5 %d", def.Store.Len(), lin5.Store.Len())
	}

	// The devices endpoint lists both with distinct fingerprints.
	devs := getDevices(t, ts.URL)
	if devs.Default != "lin3" || len(devs.Devices) != 2 {
		t.Fatalf("devices response %+v", devs)
	}
	if devs.Devices[0].Fingerprint == devs.Devices[1].Fingerprint {
		t.Fatal("distinct devices share a fingerprint")
	}
	for _, d := range devs.Devices {
		if d.Epoch != 0 || d.Entries == 0 {
			t.Fatalf("device status %+v", d)
		}
	}
}

func getDevices(t *testing.T, url string) DevicesResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DevicesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// rollRecorder passes every roll on to the training tier and records it.
type rollRecorder struct {
	compilesvc.CompileService
	rolls chan *devreg.Roll
}

func (r *rollRecorder) Roll(roll *devreg.Roll) {
	r.CompileService.Roll(roll)
	r.rolls <- roll
}

// TestServerCalibrateEpochRoll is the subsystem's demo: warm a device,
// recalibrate with a ±2% drift, and watch the background roll re-cover
// every group in the new epoch — warm-seeded from the old epoch's pulses —
// while the next request serves warm at epoch 1.
func TestServerCalibrateEpochRoll(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// Record the roll handed to the training tier, so the test can wait
	// on its completion.
	s := New(Config{Compile: fastOpts(), Workers: 8})
	rec := &rollRecorder{CompileService: s.svc, rolls: make(chan *devreg.Roll, 1)}
	s.svc = rec
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Warm epoch 0 with two distinct 1q groups.
	for _, prog := range []string{rxAProgram, rxBProgram} {
		if _, code := postCompile(t, ts.URL, CompileRequest{QASM: prog}); code != http.StatusOK {
			t.Fatalf("warmup status %d", code)
		}
	}
	epoch0 := s.Store().Snapshot()
	if len(epoch0.Entries) != 2 {
		t.Fatalf("epoch 0 has %d entries, want 2", len(epoch0.Entries))
	}

	// Bad calibrations are rejected.
	if resp, raw := postJSON(t, ts.URL+"/v1/devices/nope/calibrate", devreg.CalibrationUpdate{DriftPct: 2}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown device calibrate: %d %s", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/devices/default/calibrate", devreg.CalibrationUpdate{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty calibrate: %d %s", resp.StatusCode, raw)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/devices/default/calibrate", devreg.CalibrationUpdate{DriftPct: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrate status %d: %s", resp.StatusCode, raw)
	}
	var cal CalibrateResponse
	if err := json.Unmarshal(raw, &cal); err != nil {
		t.Fatal(err)
	}
	if cal.Epoch != 1 || cal.Planned != 2 {
		t.Fatalf("calibrate response %+v, want epoch 1 with 2 planned", cal)
	}

	// The roll runs on the background lane; wait for it to finish.
	roll := <-rec.rolls
	select {
	case <-roll.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("roll did not finish: %+v", getDevices(t, ts.URL).Devices[0])
	}
	dev := getDevices(t, ts.URL).Devices[0]
	if dev.Recompile.Active || dev.Epoch != 1 {
		t.Fatalf("device after roll %+v, want epoch 1 inactive", dev)
	}
	if dev.Recompile.Done != 2 || dev.Recompile.Failed != 0 {
		t.Fatalf("roll progress %+v, want 2 done", dev.Recompile)
	}
	// The acceptance invariant: every re-trained group warm-seeded from
	// its old-epoch pulse.
	if dev.Recompile.WarmSeeded != dev.Recompile.Done {
		t.Fatalf("roll seeded %d of %d re-trainings", dev.Recompile.WarmSeeded, dev.Recompile.Done)
	}
	// Iterations may legitimately be zero at the loose test fidelity: the
	// old pulse can still satisfy the target under a 2% drift, which is
	// the warm start working perfectly. The ±iteration economics are
	// pinned by BenchmarkEpochRollWarmVsCold at tighter fidelity.

	// Epoch 1 covers the same keys with re-trained pulses.
	epoch1 := s.Store().Snapshot()
	if len(epoch1.Entries) != 2 {
		t.Fatalf("epoch 1 has %d entries, want 2", len(epoch1.Entries))
	}
	for key, e0 := range epoch0.Entries {
		e1, ok := epoch1.Entries[key]
		if !ok {
			t.Fatalf("epoch 1 missing %q", key)
		}
		if e1.Pulse == e0.Pulse {
			t.Fatalf("entry %q was not re-trained (same pulse object)", key)
		}
	}

	// A repeat request serves warm from the new epoch and reports it.
	warm, code := postCompile(t, ts.URL, CompileRequest{QASM: rxAProgram})
	if code != http.StatusOK {
		t.Fatalf("post-roll status %d", code)
	}
	if !warm.WarmServed {
		t.Fatalf("post-roll request not warm: %+v", warm)
	}
	if warm.Epoch != 1 {
		t.Fatalf("post-roll epoch %d, want 1", warm.Epoch)
	}
	// The old epoch drained (no in-flight requests): it must be retired.
	if st := getDevices(t, ts.URL).Devices[0]; st.Draining {
		t.Fatalf("old epoch still draining: %+v", st)
	}
}

// TestServerCrossEpochSeedingDuringRoll pins the miss path while a roll is
// in flight: a fresh-epoch cache miss must warm-start from the previous
// epoch's index through the parent link (deterministically, by driving
// compile directly instead of racing the background pipeline).
func TestServerCrossEpochSeedingDuringRoll(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	s := New(Config{Compile: fastOpts(), Workers: 1})
	defer s.Close()
	progA := mustParseT(t, rxAProgram)
	progB := mustParseT(t, rxBProgram)
	if _, err := s.svc.Do(&compilesvc.Request{Prog: progA, NS: s.defaultNS()}); err != nil {
		t.Fatal(err)
	}
	// Open the epoch directly on the registry: no background pipeline
	// races this test.
	roll, err := s.Registry().Calibrate("", devreg.CalibrationUpdate{DriftPct: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer roll.Finish()

	res, err := s.svc.Do(&compilesvc.Request{Prog: progB, NS: roll.New})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.UncoveredUnique != 1 || res.Resp.WarmSeeded != 1 {
		t.Fatalf("fresh-epoch miss not cross-epoch seeded: %+v", res.Resp)
	}
	if res.Resp.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", res.Resp.Epoch)
	}
}

// TestServerEpochRollUnderConcurrentTraffic is the race acceptance
// criterion: an epoch roll lands while concurrent clients compile, and
// every request must succeed (run under -race in CI).
func TestServerEpochRollUnderConcurrentTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	_, ts := newTestServer(t)
	if _, code := postCompile(t, ts.URL, CompileRequest{QASM: rxAProgram}); code != http.StatusOK {
		t.Fatal("warmup failed")
	}

	const clients = 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			prog := rxAProgram
			if i%2 == 1 {
				prog = rxBProgram
			}
			for k := 0; k < 3; k++ {
				if _, code := postCompile(t, ts.URL, CompileRequest{QASM: prog}); code != http.StatusOK {
					t.Errorf("client %d request %d: status %d", i, k, code)
				}
			}
		}(i)
	}
	close(start)
	// Two calibrations land mid-traffic.
	for _, drift := range []float64{1.5, -1} {
		if resp, raw := postJSON(t, ts.URL+"/v1/devices/default/calibrate",
			devreg.CalibrationUpdate{DriftPct: drift}); resp.StatusCode != http.StatusOK {
			t.Fatalf("calibrate: %d %s", resp.StatusCode, raw)
		}
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.Server.Failures != 0 || st.Server.Rejected != 0 {
		t.Fatalf("roll under traffic failed requests: %+v", st.Server)
	}
	if dev := getDevices(t, ts.URL).Devices[0]; dev.Epoch != 2 {
		t.Fatalf("device at epoch %d, want 2", dev.Epoch)
	}
}

// bootEntry builds a minimal valid entry for snapshot fixtures.
func bootEntry(i int) *precompile.Entry {
	p := pulse.New([]string{"x", "y"}, 12, 2.0)
	for c := range p.Amps {
		for s := range p.Amps[c] {
			p.Amps[c][s] = 0.01 * math.Sin(float64(i+c+s))
		}
	}
	return &precompile.Entry{Key: fmt.Sprintf("boot-%d", i), NumQubits: 1, Pulse: p, LatencyNs: 24}
}

// TestServerBootSnapshotReadiness pins the /healthz readiness gate: 503
// while the boot snapshot loads or after a fingerprint mismatch, 200 once
// a matching (or forced) snapshot is in.
func TestServerBootSnapshotReadiness(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "boot.snap")
	lib := precompile.NewLibrary()
	for i := 0; i < 3; i++ {
		e := bootEntry(i)
		lib.Entries[e.Key] = e
	}
	goodFP := devreg.Profile{Name: "lin3", Device: fastOpts().Device, Ham: fastOpts().Precompile.Ham}.Fingerprint()
	if err := libstore.SaveLibraryFingerprint(lib, path, libstore.FormatGob, goodFP); err != nil {
		t.Fatal(err)
	}

	waitHealth := func(s *Server, wantStatus string, wantCode int) HealthResponse {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var out HealthResponse
			if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
				t.Fatal(derr)
			}
			resp.Body.Close()
			if out.Status == wantStatus {
				if resp.StatusCode != wantCode {
					t.Fatalf("status %q with code %d, want %d", out.Status, resp.StatusCode, wantCode)
				}
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz never reached %q: %+v", wantStatus, out)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Matching fingerprint: ready, entries loaded, snapshot age reported.
	s := New(Config{Compile: fastOpts(), DeviceName: "lin3", BootSnapshot: path, Workers: 1})
	h := waitHealth(s, "ok", http.StatusOK)
	if h.Boot == nil || !h.Boot.Loaded || h.Boot.Entries != 3 {
		t.Fatalf("boot health %+v", h.Boot)
	}
	if h.Boot.AgeSeconds < 0 {
		t.Fatalf("negative snapshot age %v", h.Boot.AgeSeconds)
	}
	if s.Store().Len() != 3 {
		t.Fatalf("store has %d entries after boot load", s.Store().Len())
	}
	s.Close()

	// Mismatched fingerprint (a different device's server): unready with
	// an explanatory error and nothing loaded — the regression the
	// snapshot identity exists to catch.
	mismatchOpts := fastOpts()
	mismatchOpts.Device = topology.Linear(4)
	bad := New(Config{Compile: mismatchOpts, DeviceName: "lin4", BootSnapshot: path, Workers: 1})
	h = waitHealth(bad, "error", http.StatusServiceUnavailable)
	if h.Boot == nil || h.Boot.Loaded || h.Boot.Error == "" {
		t.Fatalf("mismatch boot health %+v", h.Boot)
	}
	if bad.Store().Len() != 0 {
		t.Fatalf("mismatched snapshot loaded %d entries", bad.Store().Len())
	}
	bad.Close()

	// The -lib-force escape hatch loads it anyway and reports ready.
	forced := New(Config{Compile: mismatchOpts, DeviceName: "lin4",
		BootSnapshot: path, BootSnapshotForce: true, Workers: 1})
	h = waitHealth(forced, "ok", http.StatusOK)
	if h.Boot == nil || !h.Boot.Loaded || h.Boot.Entries != 3 {
		t.Fatalf("forced boot health %+v", h.Boot)
	}
	forced.Close()

	// No snapshot on disk yet: a cold boot is a ready boot.
	cold := New(Config{Compile: fastOpts(), BootSnapshot: filepath.Join(dir, "absent.snap"), Workers: 1})
	h = waitHealth(cold, "ok", http.StatusOK)
	if h.Boot == nil || h.Boot.Entries != 0 {
		t.Fatalf("cold boot health %+v", h.Boot)
	}
	cold.Close()
}

func mustParseT(t *testing.T, src string) *circuit.Circuit {
	t.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
