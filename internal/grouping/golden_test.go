package grouping_test

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"strings"
	"testing"

	"accqoc"
	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/grouping"
	"accqoc/internal/workload"
)

// keysGolden pins CanonicalOrientation byte for byte. Keys are persisted in
// library snapshots, so a change to one output byte orphans every trained
// pulse on disk. The file was generated by the fmt-based renderer that
// fmtCanonicalOrientation below reproduces; one line per corpus input,
// "<swapped 0|1> <key>".
const keysGolden = "testdata/keys.golden"

// corpusPrograms are the programs whose group unitaries the key golden
// covers: qft:2..6, the end-to-end benchmark's warm and mixed random
// programs, and the Table II suite programs that fit Melbourne. internal/crosstalk's fidelity golden
// uses the same list.
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

// corpusUnitaries returns the distinct group unitaries of the corpus
// programs under the default pipeline (Melbourne, map2b4l), in first
// occurrence order, followed by the synthetic edge cases.
func corpusUnitaries(t testing.TB) []*cmat.Matrix {
	comp := accqoc.New(accqoc.Options{})
	seen := map[string]bool{}
	var out []*cmat.Matrix
	for _, p := range corpusPrograms(t) {
		prep, err := comp.Prepare(p.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, g := range prep.Grouping.Groups {
			u, err := g.Unitary()
			if err != nil {
				t.Fatal(err)
			}
			if id := bitsID(u); !seen[id] {
				seen[id] = true
				out = append(out, u)
			}
		}
	}
	return append(out, edgeCases()...)
}

// bitsID identifies a matrix by the exact bits of its entries.
func bitsID(u *cmat.Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d", u.Rows, u.Cols)
	for _, v := range u.Data {
		fmt.Fprintf(&b, ":%x:%x", math.Float64bits(real(v)), math.Float64bits(imag(v)))
	}
	return b.String()
}

// edgeCases are synthetic 2×2 and 4×4 inputs at the renderer's corners:
// signed zeros, entries on and beside the 0.000005 rounding ties, phase
// references whose magnitudes differ by about the 1e-12 tolerance, and
// magnitudes far outside a unitary's.
func edgeCases() []*cmat.Matrix {
	negZero := math.Copysign(0, -1)
	ties := []float64{0.000005, -0.000005, 0.000015, -0.000015, 0.123455, -0.123455, 0.999995, -0.999995, 0.5000049999999999, 0.50000500000001}
	var vals []complex128
	for _, x := range ties {
		vals = append(vals, complex(x, 0), complex(0, x), complex(x, -x),
			complex(math.Nextafter(x, 0), math.Nextafter(x, 1)))
	}
	vals = append(vals,
		complex(0, 0), complex(negZero, 0), complex(0, negZero), complex(negZero, negZero),
		1e3+2e3i, -123456.789015-0.000004999i, 6e13-6e13i, complex(-7.25e8, 1.0000050000001),
		complex(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64))

	var out []*cmat.Matrix
	// Every value alone on the diagonal of an otherwise zero matrix, and
	// as the off-diagonal partner of a unit reference.
	for _, n := range []int{2, 4} {
		for _, v := range vals {
			a := cmat.New(n, n)
			a.Data[0], a.Data[n*n-1] = v, v
			b := cmat.New(n, n)
			b.Data[0], b.Data[1] = complex(0, 1), v
			out = append(out, a, b)
		}
	}
	// All-zero and all-negative-zero matrices (no phase reference).
	for _, n := range []int{2, 4} {
		z := cmat.New(n, n)
		nz := cmat.New(n, n)
		for i := range nz.Data {
			nz.Data[i] = complex(negZero, negZero)
		}
		out = append(out, z, nz)
	}
	// Near-tie phase references: two entries of equal magnitude up to
	// deltas around the 1e-12 tolerance, with different phases, placed so
	// the qubit swap reorders them.
	for _, delta := range []float64{0, 5e-13, 1e-12, 1.0000001e-12, 2e-12, -1e-12, -5e-13} {
		for _, pos := range [][2]int{{1, 2}, {2, 1}, {5, 10}, {6, 9}, {0, 15}} {
			m := cmat.New(4, 4)
			m.Data[pos[0]] = cmplx.Rect(0.7, 0.3)
			m.Data[pos[1]] = cmplx.Rect(0.7+delta, -1.1)
			m.Data[3] = 0.2 + 0.1i
			out = append(out, m)
		}
		m := cmat.New(2, 2)
		m.Data[1] = cmplx.Rect(0.6, 2.0)
		m.Data[2] = cmplx.Rect(0.6+delta, -0.4)
		out = append(out, m)
	}
	// Random matrices whose every entry sits on a rounding tie after a
	// unit-phase reference, and random unitaries at large scale.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		n := 2 << (i % 2)
		m := cmat.New(n, n)
		m.Data[rng.Intn(n*n)] = 1
		for j := range m.Data {
			if m.Data[j] == 0 {
				re := (float64(rng.Intn(200001)-100000) + 0.5) / 1e5
				im := (float64(rng.Intn(200001)-100000) - 0.5) / 1e5
				m.Data[j] = complex(re, im)
			}
		}
		out = append(out, m)
		out = append(out, cmat.Scale(complex(math.Pow(10, float64(i%9)), 0), cmat.RandomUnitary(rng, n)))
	}
	return out
}

// renderCorpus renders the golden text for a set of inputs.
func renderCorpus(us []*cmat.Matrix, orient func(*cmat.Matrix) (string, bool)) []byte {
	var b bytes.Buffer
	for _, u := range us {
		k, swapped := orient(u)
		s := 0
		if swapped {
			s = 1
		}
		fmt.Fprintf(&b, "%d %s\n", s, k)
	}
	return b.Bytes()
}

// TestCanonicalKeyGolden checks CanonicalOrientation against the committed
// key corpus, byte for byte.
func TestCanonicalKeyGolden(t *testing.T) {
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := renderCorpus(corpusUnitaries(t), grouping.CanonicalOrientation)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("corpus has %d lines, golden %d", len(gl), len(wl))
}

// TestCanonicalKeyMatchesFmtRenderer compares CanonicalOrientation with the
// fmt-based reference renderer on random matrices built to land on rounding
// ties, signed zeros and near-tie phase references.
func TestCanonicalKeyMatchesFmtRenderer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	pick := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return (float64(rng.Intn(2000001)-1000000) + 0.5) / 1e5 // tie
		case 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		default:
			return rng.Float64()*2 - 1
		}
	}
	for i := 0; i < trials; i++ {
		n := 2 << rng.Intn(2)
		m := cmat.New(n, n)
		for j := range m.Data {
			m.Data[j] = complex(pick(), pick())
		}
		if rng.Intn(4) == 0 {
			// A second entry whose magnitude nearly ties the first's.
			a, b := rng.Intn(n*n), rng.Intn(n*n)
			r := cmplx.Abs(m.Data[a]) + float64(rng.Intn(5)-2)*5e-13
			m.Data[b] = cmplx.Rect(r, rng.Float64()*6)
		}
		gk, gs := grouping.CanonicalOrientation(m)
		wk, ws := fmtCanonicalOrientation(m)
		if gk != wk || gs != ws {
			t.Fatalf("trial %d (%s):\n got  %v %s\n want %v %s", i, bitsID(m), gs, gk, ws, wk)
		}
	}
}

// fmtCanonicalOrientation is the reference renderer the key format was
// defined by: the SWAP product for the qubit-exchanged orientation, and
// fmt's %.5f for every quantized entry.
func fmtCanonicalOrientation(u *cmat.Matrix) (string, bool) {
	best := fmtPhaseCanonical(u)
	if u.Rows == 4 {
		s, err := gate.Unitary(gate.Swap, nil)
		if err != nil {
			panic(err)
		}
		if k := fmtPhaseCanonical(cmat.MulChain(s, u, s)); k < best {
			return k, true
		}
	}
	return best, false
}

func fmtPhaseCanonical(u *cmat.Matrix) string {
	var ref complex128
	var refAbs float64
	for _, v := range u.Data {
		if a := cmplx.Abs(v); a > refAbs+1e-12 {
			refAbs, ref = a, v
		}
	}
	phase := complex(1, 0)
	if refAbs > 0 {
		phase = cmplx.Conj(ref) / complex(refAbs, 0)
	}
	quant := func(x float64) float64 {
		half := 0.5
		if x < 0 {
			half = -0.5
		}
		q := float64(int64(x*1e5+half)) / 1e5
		if q == 0 {
			return 0
		}
		return q
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d:", u.Rows, u.Cols)
	for _, v := range u.Data {
		w := v * phase
		fmt.Fprintf(&b, "%.5f,%.5f;", quant(real(w)), quant(imag(w)))
	}
	return b.String()
}

// BenchmarkCanonicalOrientation times one canonical key of a Haar-random
// 4×4 unitary, both orientations rendered.
func BenchmarkCanonicalOrientation(b *testing.B) {
	u := cmat.RandomUnitary(rand.New(rand.NewSource(5)), 4)
	b.ReportAllocs()
	for b.Loop() {
		grouping.CanonicalOrientation(u)
	}
}
