package crosstalk

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

func TestMetricCountsClosePairs(t *testing.T) {
	dev := topology.Linear(6)
	// Two CX in the same layer on adjacent couplings (0,1) and (2,3):
	// edge distance 1 → one close pair.
	c := circuit.New(6)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{2, 3})
	if got := Metric(c, dev); got != 1 {
		t.Fatalf("Metric = %d, want 1", got)
	}
	// Far couplings (0,1) and (4,5): edge distance 3 → no close pair.
	far := circuit.New(6)
	far.MustAppend(gate.CX, []int{0, 1})
	far.MustAppend(gate.CX, []int{4, 5})
	if got := Metric(far, dev); got != 0 {
		t.Fatalf("Metric(far) = %d, want 0", got)
	}
}

func TestMetricRespectsLayers(t *testing.T) {
	dev := topology.Linear(4)
	// Sequential CXs on overlapping qubits are in different layers → no
	// concurrency → no crosstalk.
	c := circuit.New(4)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{1, 2})
	if got := Metric(c, dev); got != 0 {
		t.Fatalf("sequential gates counted as concurrent: %d", got)
	}
}

func TestPerLayer(t *testing.T) {
	dev := topology.Linear(6)
	c := circuit.New(6)
	c.MustAppend(gate.CX, []int{0, 1}) // layer 0
	c.MustAppend(gate.CX, []int{2, 3}) // layer 0 (close to above)
	c.MustAppend(gate.CX, []int{0, 1}) // layer 1
	per := PerLayer(c, dev)
	if len(per) != 2 || per[0] != 1 || per[1] != 0 {
		t.Fatalf("PerLayer = %v", per)
	}
}

func TestSingleQubitGatesIgnored(t *testing.T) {
	dev := topology.Linear(4)
	c := circuit.New(4)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	c.MustAppend(gate.CX, []int{2, 3})
	if Metric(c, dev) != 0 {
		t.Fatal("single-qubit gates should not contribute")
	}
}

func TestPairErrorModelDeterministicAndInflated(t *testing.T) {
	dev := topology.Melbourne()
	m := NewPairErrorModel(dev)
	e1 := m.BaselineError(0, 1)
	e2 := m.BaselineError(1, 0)
	if e1 != e2 {
		t.Fatal("baseline error must be order-invariant")
	}
	if e1 != m.BaselineError(0, 1) {
		t.Fatal("baseline error must be deterministic")
	}
	if got := m.CrosstalkError(0, 1); math.Abs(got-e1*InflationFactor) > 1e-15 {
		t.Fatal("crosstalk error must be inflated by InflationFactor")
	}
	// Error rates stay in a plausible range around the calibrated mean.
	cal := dev.Calibration.CXError
	if e1 < 0.5*cal || e1 > 1.5*cal {
		t.Fatalf("baseline error %v implausible vs mean %v", e1, cal)
	}
}

func TestFigure5Rows(t *testing.T) {
	dev := topology.Melbourne()
	rows := Figure5(dev, 6)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	var ratioSum float64
	for _, r := range rows {
		if r.Crosstalk <= r.Isolated {
			t.Fatalf("pair %v: crosstalk %v not above isolated %v", r.Pair, r.Crosstalk, r.Isolated)
		}
		ratioSum += r.Crosstalk / r.Isolated
	}
	avg := ratioSum / float64(len(rows))
	if math.Abs(avg-1.20) > 1e-9 {
		t.Fatalf("average inflation = %v, want 1.20 (paper: +20%%)", avg)
	}
}

func TestFigure5ClampsPairCount(t *testing.T) {
	dev := topology.Linear(3)
	rows := Figure5(dev, 99)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (device has 2 couplings)", len(rows))
	}
}

func TestProgramFidelity(t *testing.T) {
	dev := topology.Melbourne()
	c := circuit.New(14)
	c.MustAppend(gate.CX, []int{0, 1})
	f1 := ProgramFidelity(c, dev, 1000)
	if f1 <= 0 || f1 >= 1 {
		t.Fatalf("fidelity %v out of range", f1)
	}
	// Adding a concurrent close CX must reduce fidelity more than its own
	// isolated error would (crosstalk inflation).
	c2 := circuit.New(14)
	c2.MustAppend(gate.CX, []int{0, 1})
	c2.MustAppend(gate.CX, []int{2, 3})
	f2 := ProgramFidelity(c2, dev, 1000)
	if f2 >= f1 {
		t.Fatal("two crosstalking CXs should have lower fidelity than one")
	}
	// Longer latency decays fidelity.
	f3 := ProgramFidelity(c, dev, 50000)
	if f3 >= f1 {
		t.Fatal("longer latency should reduce fidelity")
	}
}

// TestBaselineErrorMemoConcurrent reads every pair of two devices, in both
// orders, from several goroutines at once while the jitter memo fills, and
// checks each value bit for bit against a fresh seeded draw — couplings
// (memoised) and non-couplings (drawn each time) alike.
func TestBaselineErrorMemoConcurrent(t *testing.T) {
	devs := []*topology.Device{topology.Melbourne(), topology.Linear(5)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, dev := range devs {
				m := NewPairErrorModel(dev)
				for a := 0; a < dev.NumQubits; a++ {
					for b := 0; b < dev.NumQubits; b++ {
						lo, hi := min(a, b), max(a, b)
						rng := rand.New(rand.NewSource(int64(lo*1009 + hi*9176 + 12345)))
						want := dev.Calibration.CXError * (0.6 + 0.8*rng.Float64())
						if got := m.BaselineError(a, b); got != want {
							t.Errorf("%s BaselineError(%d, %d) = %v, want %v", dev.Name, a, b, got, want)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
