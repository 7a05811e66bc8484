package compilesvc

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"accqoc/internal/circuit"
	"accqoc/internal/crosstalk"
	"accqoc/internal/devreg"
	"accqoc/internal/gatepulse"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/topology"
)

// Request is one unit of compile work handed across the tier seam: an
// ingested program bound to its (device, epoch) namespace. The routing
// tier owns admission, validation and the namespace reference; the
// training tier owns everything between Prepare and the finished
// response.
type Request struct {
	Prog *circuit.Circuit
	// NS is the acquired namespace. The caller holds the reference for
	// the lifetime of the call (Do) or until its done callback returns
	// (Submit).
	NS *devreg.Namespace
	// Circuit requests the whole-circuit pipeline (scheduled pulse
	// program) instead of the plain compile summary; Waveforms
	// additionally inlines the referenced waveforms.
	Circuit   bool
	Waveforms bool
	// Trace is the request's pipeline trace; nil when observability is
	// off (every span call is nil-safe).
	Trace *obs.Trace
}

// Result is the training tier's answer: exactly one of Resp (plain
// compile) or Circ (whole-circuit) is set, matching Request.Circuit.
type Result struct {
	Resp *CompileResponse
	Circ *CircuitResponse
}

// CompileResponse reports one request's accelerated compilation. It is
// the wire body of POST /v1/compile (the routing tier aliases it).
type CompileResponse struct {
	Qubits int `json:"qubits"`
	Gates  int `json:"gates"`

	// Device echoes the request's device routing (empty for the default
	// wire format); Epoch is the calibration epoch that served the
	// request (0, the boot epoch, is omitted).
	Device string `json:"device,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`

	// Coverage of group occurrences by the library at request start
	// (§V-A). A warm request has coverage 1.
	TotalGroups     int     `json:"total_groups"`
	CoveredGroups   int     `json:"covered_groups"`
	CoverageRate    float64 `json:"coverage_rate"`
	UncoveredUnique int     `json:"uncovered_unique"`
	FailedGroups    int     `json:"failed_groups"`
	WarmServed      bool    `json:"warm_served"`

	// TrainingIterations sums GRAPE iterations across the trainings this
	// request executed itself (joined in-flight trainings excluded) —
	// the compile-cost metric of §VI-G. Async requests whose batch
	// trained a group shared with a concurrent job each report that
	// group's cost.
	TrainingIterations int `json:"training_iterations"`
	// WarmSeeded counts this request's trainings that warm-started from
	// a seed (an MST neighbor trained earlier in the request, or a
	// covered entry from the seed index) instead of a random waveform.
	WarmSeeded int `json:"warm_seeded"`
	// SeedDistance is the mean similarity distance of the admitted
	// seeds; 0 when WarmSeeded is 0.
	SeedDistance float64 `json:"seed_distance"`

	QOCLatencyNs      float64 `json:"qoc_latency_ns"`
	GateLatencyNs     float64 `json:"gate_latency_ns"`
	LatencyReduction  float64 `json:"latency_reduction"`
	EstimatedFidelity float64 `json:"estimated_fidelity"`

	// CompileMillis is the server-side wall time for this request (for
	// async jobs: submit to completion, batching window included).
	CompileMillis float64 `json:"compile_millis"`
}

// ScheduledPulseWire is one slot of the scheduled pulse program.
type ScheduledPulseWire struct {
	// Group indexes the program's gate groups in grouping order.
	Group int `json:"group"`
	// Qubits are the physical qubits the slot drives.
	Qubits []int `json:"qubits"`
	// StartNs/DurationNs place the slot on the program timeline (ASAP
	// start under Algorithm 3).
	StartNs    float64 `json:"start_ns"`
	DurationNs float64 `json:"duration_ns"`
	// Waveform is the content address of the library pulse driving this
	// slot; empty for groups that failed to train and execute gate-based.
	Waveform string `json:"waveform,omitempty"`
	// Mirrored marks slots whose qubit order is the mirror of the library
	// pulse's canonical orientation: on replay the per-qubit drive
	// channels exchange (inlined waveforms are canonical, not exchanged).
	Mirrored bool `json:"mirrored,omitempty"`
}

// CircuitResponse is the POST /v1/circuits/compile body: the compile
// summary (coverage, training cost, latency vs the gate-based baseline)
// plus the scheduled pulse program itself.
type CircuitResponse struct {
	Compile CompileResponse `json:"compile"`
	// MakespanNs is the program's overall latency — the end of the last
	// scheduled slot (equals compile.qoc_latency_ns).
	MakespanNs float64 `json:"makespan_ns"`
	// Schedule lists every group slot ordered by start time.
	Schedule []ScheduledPulseWire `json:"schedule"`
	// Waveforms maps content addresses to canonical waveforms, present
	// only when the request set include_waveforms.
	Waveforms map[string]*pulse.Pulse `json:"waveforms,omitempty"`
}

// WaveformRef digests a library pulse into the compact content address
// used on the wire. The address covers the waveform bytes themselves —
// not the group key — so a retrained pulse (a new calibration epoch, a
// different device's physics) gets a new ref and a client-side waveform
// cache can never replay a stale wrong-calibration pulse; identical
// waveforms share a ref across requests.
func WaveformRef(e *precompile.Entry) string {
	data, err := e.Pulse.MarshalBinary()
	if err != nil {
		// Unreachable for trained entries (pulses validate on decode);
		// degrade to the key digest rather than dropping the ref.
		data = []byte(e.Key)
	}
	h := sha256.Sum256(data)
	return "wf:" + hex.EncodeToString(h[:12])
}

// finalizeResponse fills the latency/fidelity tail shared by the
// per-group and circuit responses.
func finalizeResponse(resp *CompileResponse, phys *circuit.Circuit, dev *topology.Device, overall float64, begin time.Time) {
	resp.QOCLatencyNs = overall
	resp.GateLatencyNs = gatepulse.Overall(phys, dev.Calibration)
	if overall > 0 {
		resp.LatencyReduction = resp.GateLatencyNs / overall
	}
	resp.EstimatedFidelity = crosstalk.ProgramFidelity(phys, dev, overall)
	resp.CompileMillis = float64(time.Since(begin)) / float64(time.Millisecond)
}
