package crosstalk_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"accqoc"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gatepulse"
	"accqoc/internal/workload"
)

// fidelityGolden pins ProgramFidelity bit for bit: one line per corpus
// program, "<name> <bits at the gate latency> <bits at zero latency>", each
// the hex of math.Float64bits. Zero latency isolates the per-gate error
// product from the decoherence factor.
const fidelityGolden = "testdata/fidelity.golden"

// corpusPrograms are the programs of internal/grouping's key golden:
// qft:2..6, the end-to-end benchmark's warm and mixed random programs, and
// the Table II suite programs that fit Melbourne.
func corpusPrograms(t testing.TB) []*workload.Program {
	var out []*workload.Program
	for n := 2; n <= 6; n++ {
		out = append(out, workload.QFT(n))
	}
	for _, seed := range []int64{602, 604} {
		p, err := workload.Random(fmt.Sprintf("warm_%d", seed), 3, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for i, seed := range []int64{300, 301, 302, 416, 424, 438, 444, 449, 458} {
		gates := 5
		if i >= 3 {
			gates = 3
		}
		p, err := workload.Random(fmt.Sprintf("mixed_%d", seed), 3+int(seed%2), gates, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for _, p := range workload.NamedSuite() {
		if p.Circuit.NumQubits <= 14 { // Melbourne's size: qft_16 does not map
			out = append(out, p)
		}
	}
	return out
}

// renderFidelities maps every corpus program under the default pipeline
// (Melbourne, map2b4l) and renders its golden line.
func renderFidelities(t testing.TB) []byte {
	comp := accqoc.New(accqoc.Options{})
	dev := comp.Options().Device
	var b bytes.Buffer
	for _, p := range corpusPrograms(t) {
		prep, err := comp.Prepare(p.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		phys := prep.Physical
		lat := gatepulse.Overall(phys, dev.Calibration)
		fmt.Fprintf(&b, "%s %016x %016x\n", p.Name,
			math.Float64bits(crosstalk.ProgramFidelity(phys, dev, lat)),
			math.Float64bits(crosstalk.ProgramFidelity(phys, dev, 0)))
	}
	return b.Bytes()
}

// TestProgramFidelityGolden checks ProgramFidelity against the committed
// corpus, bit for bit.
func TestProgramFidelityGolden(t *testing.T) {
	want, err := os.ReadFile(fidelityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFidelities(t); !bytes.Equal(got, want) {
		t.Fatalf("fidelities differ from %s:\n got\n%s\n want\n%s", fidelityGolden, got, want)
	}
}
