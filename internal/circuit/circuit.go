// Package circuit provides the shared intermediate representation of the
// AccQOC pipeline: a quantum circuit as an ordered gate list, its DAG of
// data dependencies per qubit wire, ASAP layering, instruction-mix
// statistics, and exact unitary construction for small circuits.
package circuit

import (
	"fmt"
	"slices"
	"sort"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

// Circuit is an ordered list of gates over NumQubits wires. The gate order
// is a valid topological order of the dependency DAG by construction.
type Circuit struct {
	NumQubits int
	Gates     []gate.Instance
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic(fmt.Sprintf("circuit: negative qubit count %d", n))
	}
	return &Circuit{NumQubits: n}
}

// Append validates and adds a gate to the circuit.
func (c *Circuit) Append(n gate.Name, qubits []int, params ...float64) error {
	g, err := gate.NewInstance(n, qubits, params)
	if err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits)
		}
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// MustAppend is Append that panics on error, for hand-built circuits.
func (c *Circuit) MustAppend(n gate.Name, qubits []int, params ...float64) {
	if err := c.Append(n, qubits, params...); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]gate.Instance, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = gate.Instance{
			Name:   g.Name,
			Qubits: append([]int(nil), g.Qubits...),
			Params: append([]float64(nil), g.Params...),
		}
	}
	return out
}

// GateCount returns the number of gates.
func (c *Circuit) GateCount() int { return len(c.Gates) }

// InstructionMix counts gates by name — the statistic of the paper's
// Table II.
func (c *Circuit) InstructionMix() map[gate.Name]int {
	mix := make(map[gate.Name]int)
	for _, g := range c.Gates {
		mix[g.Name]++
	}
	return mix
}

// DecomposeCCX returns a copy of the circuit with every Toffoli expanded
// into the standard 15-gate sequence (paper Fig. 2).
func (c *Circuit) DecomposeCCX() *Circuit {
	out := New(c.NumQubits)
	for _, g := range c.Gates {
		out.Gates = append(out.Gates, gate.DecomposeCCX(g)...)
	}
	return out
}

// DAG is the data-dependency graph of a circuit: node i is gate i, with an
// edge i→j when gate j consumes a qubit last written by gate i.
type DAG struct {
	Circuit *Circuit
	Preds   [][]int // Preds[i]: immediate predecessors of gate i (sorted)
	Succs   [][]int // Succs[i]: immediate successors of gate i (sorted)
	Depth   []int   // ASAP layer of gate i, 0-based
}

// BuildDAG constructs the dependency DAG and ASAP depths in one pass over
// the gate list (which is already topologically ordered). Predecessor and
// successor lists are carved from two shared backing arrays.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circuit: c,
		Preds:   make([][]int, n),
		Succs:   make([][]int, n),
		Depth:   make([]int, n),
	}
	wires := 0
	for _, g := range c.Gates {
		wires += len(g.Qubits)
	}
	// A gate has at most one predecessor per wire it touches, and so at
	// most wires edges in all.
	preds := make([]int, 0, wires)
	succCount := make([]int, n)
	last := make([]int, c.NumQubits) // last gate index touching each qubit
	for i := range last {
		last[i] = -1
	}
	for i, g := range c.Gates {
		start := len(preds)
		depth := 0
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && !slices.Contains(preds[start:], p) {
				preds = append(preds, p)
				succCount[p]++
				if d.Depth[p]+1 > depth {
					depth = d.Depth[p] + 1
				}
			}
			last[q] = i
		}
		d.Depth[i] = depth
		slices.Sort(preds[start:])
		d.Preds[i] = preds[start:len(preds):len(preds)]
	}
	// Successors in increasing gate order, each list a window of succs
	// sized by succCount (gates without successors keep a nil list).
	succs := make([]int, len(preds))
	off := 0
	for p, k := range succCount {
		if k > 0 {
			d.Succs[p] = succs[off : off : off+k]
			off += k
		}
	}
	for i, ps := range d.Preds {
		for _, p := range ps {
			d.Succs[p] = append(d.Succs[p], i)
		}
	}
	return d
}

// NumLayers returns the circuit depth (number of ASAP layers).
func (d *DAG) NumLayers() int {
	max := -1
	for _, dep := range d.Depth {
		if dep > max {
			max = dep
		}
	}
	return max + 1
}

// Layers groups gate indices by ASAP depth. Layer l contains all gates at
// depth l, in program order.
func (d *DAG) Layers() [][]int {
	layers := make([][]int, d.NumLayers())
	for i, dep := range d.Depth {
		layers[dep] = append(layers[dep], i)
	}
	return layers
}

// TopologicalOrder returns gate indices in a valid topological order.
// Because circuits are built sequentially this is simply 0..n−1, but the
// method exists so downstream algorithms state their requirement explicitly.
func (d *DAG) TopologicalOrder() []int {
	order := make([]int, len(d.Circuit.Gates))
	for i := range order {
		order[i] = i
	}
	return order
}

// Unitary computes the exact 2^n × 2^n unitary implemented by the circuit.
// Intended for small circuits (groups); it errors above maxQubits (10) to
// guard against accidental exponential blow-ups.
func (c *Circuit) Unitary() (*cmat.Matrix, error) {
	const maxQubits = 10
	if c.NumQubits > maxQubits {
		return nil, fmt.Errorf("circuit: Unitary limited to %d qubits, have %d", maxQubits, c.NumQubits)
	}
	dim := 1 << c.NumQubits
	acc := cmat.Identity(dim)
	for _, g := range c.Gates {
		u, err := g.Unitary()
		if err != nil {
			return nil, err
		}
		acc = cmat.Mul(gate.Embed(u, g.Qubits, c.NumQubits), acc)
	}
	return acc, nil
}

// UsedQubits returns the sorted set of qubits any gate touches.
func (c *Circuit) UsedQubits() []int {
	seen := map[int]bool{}
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			seen[q] = true
		}
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// TwoQubitGateCount counts gates touching two or more qubits.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits) >= 2 {
			n++
		}
	}
	return n
}
