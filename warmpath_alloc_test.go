package accqoc

import (
	"math/rand"
	"runtime"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gate"
	"accqoc/internal/grouping"
	"accqoc/internal/topology"
)

// Allocation bounds of the warm path's front half, per call.
const (
	// canonicalKeyAllocs: the returned key string; both renderings live in
	// stack buffers.
	canonicalKeyAllocs = 1
	// buildDAGAllocs: the DAG, its Preds/Succs/Depth slices, the last-gate
	// table, the successor counts, and the predecessor and successor
	// backing arrays.
	buildDAGAllocs = 8
)

// allocsAt reports the heap allocations of one f call with GOMAXPROCS set
// to procs. testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures,
// so above one proc the count is read from the runtime's malloc counter
// the same way.
func allocsAt(procs int, f func()) float64 {
	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if procs == 1 {
		return testing.AllocsPerRun(runs, f)
	}
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs)
}

// TestWarmPathAllocs asserts the allocation facts of the per-request
// front half on one core and on four: canonical keys, the crosstalk error
// model and the dependency DAG.
func TestWarmPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := cmat.RandomUnitary(rng, 4)
	dev := topology.Melbourne()
	model := crosstalk.NewPairErrorModel(dev)
	edge := dev.UndirectedEdges()[3]
	c := circuit.New(5)
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			c.MustAppend(gate.CX, []int{i % 5, (i + 2) % 5})
		} else {
			c.MustAppend(gate.H, []int{i % 5})
		}
	}
	var sink float64
	for _, procs := range []int{1, 4} {
		if n := allocsAt(procs, func() { grouping.CanonicalOrientation(u) }); n > canonicalKeyAllocs {
			t.Errorf("GOMAXPROCS=%d: CanonicalOrientation(4×4) = %v allocs/op, want ≤ %d", procs, n, canonicalKeyAllocs)
		}
		model.BaselineError(edge.From, edge.To)
		if n := allocsAt(procs, func() { sink += model.BaselineError(edge.To, edge.From) }); n != 0 {
			t.Errorf("GOMAXPROCS=%d: BaselineError after first use = %v allocs/op, want 0", procs, n)
		}
		if n := allocsAt(procs, func() { circuit.BuildDAG(c) }); n > buildDAGAllocs {
			t.Errorf("GOMAXPROCS=%d: BuildDAG(20 gates) = %v allocs/op, want ≤ %d", procs, n, buildDAGAllocs)
		}
	}
	if sink == 0 {
		t.Fatal("BaselineError returned 0")
	}
}
