package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/qasm"
	"accqoc/internal/workload"
)

// program is one generated circuit and the QASM text the server receives.
type program struct {
	name string
	circ *circuit.Circuit
	qasm string
}

func newProgram(p *workload.Program) *program {
	return &program{name: p.Name, circ: p.Circuit, qasm: qasm.Print(p.Circuit)}
}

// draw is one request a client sends: a program index and, on the
// circuit endpoint, whether the waveforms are inlined.
type draw struct {
	prog      int
	waveforms bool
}

// spec describes one workload: its traffic shape, the store settings it
// adds on top of the server's defaults, and how its outputs are checked
// and replayed. Every per-workload choice lives here. BENCHMARK.json
// records why each workload exists.
type spec struct {
	name string
	// clients is the number of closed-loop clients of the timed phase
	// (each waits for its response before sending the next request).
	// warm_hits runs one: a second keeps the server and the load
	// generator on both cores at once, and its tail then follows the
	// host's scheduler more than the server.
	clients int
	// circuits selects POST /v1/circuits/compile instead of /v1/compile.
	circuits bool
	// capacity and shards size the library store (0: the server's
	// defaults). The server's flags and the replay's store both follow
	// them.
	capacity, shards int
	// universe builds the program set; set-up trains its first warm
	// programs.
	universe func() []*program
	warm     int
	// order lays out the fixed work of a timed phase that trains (see
	// newSequence); nil draws uniformly from the universe until the
	// phase's time is up.
	order func(rng *rand.Rand, dur time.Duration) []draw
	// hitsOnly marks a timed phase that only hits the library set-up
	// warmed: every response must be warm_served and repeat its program's
	// first response, and grape_iters counts the set-up's training.
	hitsOnly bool
	// segment, when set, cuts the timed phase into segments of about that
	// length, and p50_ms, p99_ms and throughput_rps are taken over those
	// the hypervisor left quiet (see segmentStats); 0 takes them over the
	// whole phase.
	segment time.Duration
	// replayShare is the share of the timed requests, from the phase's
	// start, that the traced run replays (replaying trainings is as slow
	// as serving them; two clients' trainings replay one after another).
	replayShare float64
}

var (
	warmHits = spec{
		name:        "warm_hits",
		clients:     1,
		universe:    warmUniverse,
		warm:        len(warmSeeds) + 1,
		hitsOnly:    true,
		segment:     time.Second,
		replayShare: 1,
	}
	mixedCircuits = spec{
		name:     "mixed_circuits",
		clients:  2,
		circuits: true,
		// Smaller than the universe's unique groups, so the store evicts.
		// One shard makes the capacity one LRU list (sixteen shards would
		// cap each at under one entry and evict by hash collision).
		capacity:    8,
		shards:      1,
		universe:    mixedUniverse,
		warm:        mixedHot,
		order:       mixedOrder,
		replayShare: 0.25,
	}
	specs = []spec{warmHits, mixedCircuits}
)

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// flags are the workload's deployment settings on top of the server's
// default flags.
func (s spec) flags() []string {
	var out []string
	if s.capacity > 0 {
		out = append(out, "-capacity", fmt.Sprint(s.capacity))
	}
	if s.shards > 0 {
		out = append(out, "-shards", fmt.Sprint(s.shards))
	}
	return out
}

// trains reports whether the timed phase trains (and so runs fixed work).
func (s spec) trains() bool { return s.order != nil }

const (
	// coldPrograms sizes the cold pool of the traced runs' training probe.
	coldPrograms = 60
	// mixedBlockSeconds is the --seconds that buy one block of
	// mixedCounts draws.
	mixedBlockSeconds = 4
	// driftPct is the detuning drift of the traced run's calibration
	// probe.
	driftPct = 2
)

// mixedCounts is one block of mixed_circuits draws: how often each
// universe program appears, a Zipf-like skew over ranks. The three hot
// programs take 90 of the 98 draws. The two leading cold programs are
// drawn twice in a row, so the second request joins the first's training;
// the other four once, so a client reaches the next cold program while
// the other still trains one, and two trainings share the pool. (Pairing
// all six serialized the trainings and halved the throughput.)
var mixedCounts = []int{40, 30, 20, 2, 2, 1, 1, 1, 1}

// mixedHot is how many leading mixed_circuits programs set-up trains.
const mixedHot = 3

// mixedSeeds are the workload.Random seeds of mixed_circuits' universe in
// rank order: three hot programs (five gates) sharing six unique groups,
// then six cold programs (three gates) adding one new two-qubit group
// each. The store holds the hot groups and two more, and cold draws come
// at a steady cadence (see mixedOrder), so each cold draw retrains and
// evicts the older of the two cold groups held, while the hot groups stay.
var mixedSeeds = []int64{300, 301, 302, 416, 424, 438, 444, 449, 458}

// warmSeeds are the workload.Random seeds of the warm universe.
var warmSeeds = []int64{602, 604}

// warmUniverse is the fixed program set warm_hits trains in set-up and
// then draws from: qft:2 and two small random circuits, few enough groups
// that set-up can run three times a run.
func warmUniverse() []*program {
	out := []*program{newProgram(workload.QFT(2))}
	for i, seed := range warmSeeds {
		p, err := workload.Random(fmt.Sprintf("warm_%d", i), 3, 6, seed)
		if err != nil {
			panic(err)
		}
		out = append(out, newProgram(p))
	}
	return out
}

// mixedUniverse is the fixed program set mixed_circuits draws from, in
// popularity-rank order.
func mixedUniverse() []*program {
	var out []*program
	for i, seed := range mixedSeeds {
		gates := 5
		if i >= mixedHot {
			gates = 3
		}
		p, err := workload.Random(fmt.Sprintf("mixed_%d", i), 3+int(seed%2), gates, seed)
		if err != nil {
			panic(err)
		}
		out = append(out, newProgram(p))
	}
	return out
}

// coldPool is the training probe's pool of small random programs (3–4
// qubits, three gates, at least one CX), kept only when every unique group
// of a program is new to the pool. Any order of the pool then trains every
// group of every request, so the seed's order moves only warm starts, not
// who pays for a shared group.
func coldPool() []*program {
	comp := accqoc.New(accqoc.Options{})
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	out := make([]*program, 0, coldPrograms)
	for len(out) < coldPrograms {
		q := 3 + rng.Intn(2)
		p, err := workload.Random(fmt.Sprintf("cold_%d", len(out)), q, 3, rng.Int63())
		if err != nil {
			panic(err)
		}
		plan, err := comp.PlanGroups(p.Circuit)
		if err != nil {
			panic(err)
		}
		// A program of frame gates alone has no gate-based latency to
		// compare with.
		fresh := len(plan.Unique) > 0 && p.Circuit.InstructionMix()[gate.CX] > 0
		for _, u := range plan.Unique {
			fresh = fresh && !seen[u.Key]
		}
		if !fresh {
			continue
		}
		for _, u := range plan.Unique {
			seen[u.Key] = true
		}
		out = append(out, newProgram(p))
	}
	return out
}

// sequence is the seeded request order of a timed phase, shared by its
// clients. A bounded sequence holds a fixed number of requests and the
// phase lasts until they are all answered; an unbounded one is drawn from
// until the phase's time is up.
type sequence struct {
	mu      sync.Mutex
	bounded bool
	next    func() (draw, bool)
}

func (q *sequence) draw() (draw, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.next()
}

// newSequence builds the workload's request order from the seed.
//
// warm_hits draws uniformly for the phase's seconds: it answers about a
// hundred thousand requests, so its figures settle whatever the draws.
//
// mixed_circuits trains on a few dozen of its requests, and GRAPE's cost
// varies fivefold between groups, so a seeded choice of programs swung
// its figures by half between seeds. Its work is fixed instead, sized by
// the phase's seconds, and the seed only orders it (see mixedOrder).
func newSequence(s spec, seed int64, nprogs int, dur time.Duration) *sequence {
	rng := rand.New(rand.NewSource(seed))
	q := &sequence{bounded: s.trains()}
	if !q.bounded {
		q.next = func() (draw, bool) { return draw{prog: rng.Intn(nprogs)}, true }
		return q
	}
	pending := s.order(rng, dur)
	q.next = func() (draw, bool) {
		if len(pending) == 0 {
			return draw{}, false
		}
		d := pending[0]
		pending = pending[1:]
		return d, true
	}
	return q
}

// coldOrder orders the cold pool's programs in pairs, each pair in
// seeded order (order decides which trainings warm-start which).
func coldOrder(rng *rand.Rand, n int) []draw {
	var out []draw
	for i := 0; i+1 < n; i += 2 {
		a, b := i, i+1
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		out = append(out, draw{prog: a}, draw{prog: b})
	}
	return out
}

// mixedOrder sends seconds/mixedBlockSeconds blocks (at least one), each
// holding every program mixedCounts times, with waveforms inlined on half
// of each program's draws. The seed orders a block's hot draws; the draws
// of one cold program follow every fifteenth hot draw, the cold programs
// in rank order. (Seeded cold positions let a hot program go unasked
// between two cold draws and lose its groups to eviction; the
// retrainings moved grape_iters by a quarter between seeds.)
func mixedOrder(rng *rand.Rand, dur time.Duration) []draw {
	var out []draw
	blocks := max(1, int(dur.Seconds()/mixedBlockSeconds))
	for b := 0; b < blocks; b++ {
		var hot []draw
		var cold [][]draw
		for prog, n := range mixedCounts {
			wf := rng.Intn(2) == 0
			var ds []draw
			for k := 0; k < n; k++ {
				ds = append(ds, draw{prog: prog, waveforms: wf})
				wf = !wf
			}
			if prog < mixedHot {
				hot = append(hot, ds...)
			} else {
				cold = append(cold, ds)
			}
		}
		rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
		every := len(hot) / len(cold)
		for i, d := range hot {
			out = append(out, d)
			if (i+1)%every == 0 && len(cold) > 0 {
				out = append(out, cold[0]...)
				cold = cold[1:]
			}
		}
		for _, ds := range cold {
			out = append(out, ds...)
		}
	}
	return out
}
