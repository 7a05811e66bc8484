package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"accqoc/internal/cmat"
	"accqoc/internal/compilesvc"
	"accqoc/internal/precompile"
)

// replayCap bounds the warm requests replayed per run (each is ~1 ms).
const replayCap = 2000

// replaySelection picks the served requests the in-process replay runs
// again, in send order: the workload's replayShare of the timed phase, at
// most replayCap requests.
func replaySelection(st *runState) []*result {
	n := min(replayCap, int(st.spec.replayShare*float64(len(st.timed))))
	var out []*result
	for _, r := range st.timed[:n] {
		if r.ok() {
			out = append(out, r)
		}
	}
	return out
}

// replayOutcome is one pass of the replay.
type replayOutcome struct {
	rp *replayer
	// doneAt[i] is when request i finished, from the start of the pass.
	doneAt     []time.Duration
	compared   int
	mismatches int
}

// compare counts a rebuilt response that differs from the served one in
// qoc_latency_ns, gate_latency_ns or covered_groups, or, when iters is
// set, training_iterations; the first few are printed when verbose.
func (o *replayOutcome) compare(name string, got, want *compilesvc.CompileResponse, iters, verbose bool) {
	o.compared++
	if got.QOCLatencyNs == want.QOCLatencyNs && got.GateLatencyNs == want.GateLatencyNs &&
		got.CoveredGroups == want.CoveredGroups && (!iters || got.TrainingIterations == want.TrainingIterations) {
		return
	}
	o.mismatches++
	if verbose && o.mismatches <= 5 {
		fmt.Printf("replay mismatch on %s: served qoc=%v gate=%v covered=%d iters=%d, replay qoc=%v gate=%v covered=%d iters=%d\n",
			name, want.QOCLatencyNs, want.GateLatencyNs, want.CoveredGroups, want.TrainingIterations,
			got.QOCLatencyNs, got.GateLatencyNs, got.CoveredGroups, got.TrainingIterations)
	}
}

// replay runs the selection once, traced or not, and compares each
// rebuilt response with the served one. Two clients interleave on the
// server, so training_iterations is not compared.
func replay(st *runState, sel []*result, traced bool) (*replayOutcome, error) {
	rp, err := newReplayer(st.spec, st.lib, traced)
	if err != nil {
		return nil, err
	}
	out := &replayOutcome{rp: rp}
	begin := time.Now()
	for i, r := range sel {
		rp.tr.req = i
		p := st.progs[r.d.prog]
		var got *compilesvc.CompileResponse
		if st.spec.circuits {
			c, err := rp.circuit(p.qasm, r.d.waveforms)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", p.name, err)
			}
			got = &c.Compile
		} else if got, err = rp.compile(p.qasm); err != nil {
			return nil, fmt.Errorf("replay %s: %w", p.name, err)
		}
		out.doneAt = append(out.doneAt, time.Since(begin))
		out.compare(p.name, got, r.compile, false, traced)
	}
	return out, nil
}

// probeCalls times, on the traced replayer, the layers the workload's own
// path does not call: the whole-circuit half (PlanGroups, AssembleSchedule)
// on compile-endpoint workloads, the compile front half and Algorithm 3
// on the circuit workload. Lookup only: nothing trains.
func probeCalls(st *runState, rp *replayer, sel []*result) error {
	seen := map[int]bool{}
	for _, r := range sel {
		if seen[r.d.prog] || len(seen) >= 20 {
			continue
		}
		seen[r.d.prog] = true
		rp.tr.req = -1 - r.d.prog
		prog, err := rp.parse(st.progs[r.d.prog].qasm)
		if err != nil {
			return err
		}
		lookup := func(keys []string) map[string]*precompile.Entry {
			m := map[string]*precompile.Entry{}
			for _, k := range keys {
				if e, ok := rp.ns.Store.Get(k); ok {
					m[k] = e
				}
			}
			return m
		}
		if st.spec.circuits {
			fe, err := rp.frontEnd(prog)
			if err != nil {
				return err
			}
			if _, err := rp.overall(fe.gr, fe.keys, lookup(fe.keys)); err != nil {
				return err
			}
			continue
		}
		s := rp.tr.begin("accqoc.plan")
		plan, err := rp.ns.Plan(prog)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		if _, err := rp.assemble(plan, lookup(plan.Keys)); err != nil {
			return err
		}
	}
	return nil
}

// coldProbeMin is the fewest programs the training probe serves.
const coldProbeMin = 4

// coldProbe serves cold-pool programs, in the seed's order, from one
// client to a fresh server with the default flags, and replays each on a
// fresh traced replayer right after it is served, until at least
// coldProbeMin programs, both group sizes, an MST and a seed-index lookup
// were seen. It reports the training-side layers, which the workloads'
// own paths barely reach. One client makes the server train in send
// order, so the replay must reproduce training_iterations as well.
func coldProbe(bin string, seed int64, tr *tracer) (*replayOutcome, error) {
	srv, err := bootServer(bin, nil)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	pool := coldPool()
	b, err := newBodies(spec{}, pool)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(spec{}, nil, true)
	if err != nil {
		return nil, err
	}
	rp.tr = tr
	out := &replayOutcome{rp: rp}
	for i, d := range coldOrder(rand.New(rand.NewSource(seed)), len(pool)) {
		if i >= coldProbeMin && hasSizes(rp.trainings) && spanCount(tr.spans, "simgraph.mst") > 0 && spanCount(tr.spans, "seedindex.nearest") > 0 {
			break
		}
		p := pool[d.prog]
		r := send(srv, b, d, time.Now())
		if ps := decode("cold probe", []*result{r}, false); ps.succeeded != 1 {
			return nil, fmt.Errorf("cold probe %s: %s", p.name, ps)
		}
		tr.req = 100000 + i
		got, err := rp.compile(p.qasm)
		if err != nil {
			return nil, fmt.Errorf("cold probe replay %s: %w", p.name, err)
		}
		out.compare(p.name, got, r.compile, true, true)
	}
	return out, nil
}

func hasSizes(ts []trainStat) bool {
	var one, two bool
	for _, t := range ts {
		one = one || t.qubits == 1
		two = two || t.qubits == 2
	}
	return one && two
}

func spanCount(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// spanMedian is the median duration of the named spans, in unit.
func spanMedian(spans []span, unit time.Duration, names ...string) float64 {
	for _, name := range names {
		var ds []float64
		for _, s := range spans {
			if s.Name == name {
				ds = append(ds, float64(s.EndNs-s.StartNs)/float64(unit))
			}
		}
		if len(ds) > 0 {
			return median(ds)
		}
	}
	return 0
}

// kernelNs times cmat's Hermitian eigensolver and 4×4 product on the
// sampled segment Hamiltonians: the median of five rounds of ns per call.
func kernelNs(hs []*cmat.Matrix) (eigh, mul float64) {
	if len(hs) == 0 {
		return 0, 0
	}
	ws := cmat.NewJacobiWorkspace(4)
	eig := cmat.NewHermitianEigen(4)
	dst := cmat.New(4, 4)
	round := func(f func(h *cmat.Matrix)) float64 {
		calls := 0
		begin := time.Now()
		for time.Since(begin) < 20*time.Millisecond {
			for _, h := range hs {
				f(h)
			}
			calls += len(hs)
		}
		return float64(time.Since(begin).Nanoseconds()) / float64(calls)
	}
	var es, ms []float64
	for i := 0; i < 5; i++ {
		es = append(es, round(func(h *cmat.Matrix) { _ = cmat.EigenHermitianInto(h, ws, eig) }))
		ms = append(ms, round(func(h *cmat.Matrix) { cmat.MulInto(dst, h, h) }))
	}
	return median(es), median(ms)
}

// perLayer runs the replay twice (untraced, then traced), fills the
// layers the workload's path skips from probes, and reports every
// per-layer metric.
func perLayer(st *runState, m map[string]metric, bin, out string) error {
	sel := replaySelection(st)
	if len(sel) == 0 {
		return errNoResponse
	}
	// The untraced pass, the overhead baseline, replays a prefix: a third
	// of the stream where requests train (replaying trainings is as slow
	// as serving them), all of it where nothing trains.
	prefix := sel
	if st.spec.trains() {
		prefix = sel[:max(1, len(sel)/3)]
	}
	if len(prefix) == len(sel) {
		// A discarded pass first, so neither timed pass pays for cold
		// caches and the first garbage collections.
		if _, err := replay(st, prefix, false); err != nil {
			return err
		}
	}
	plain, err := replay(st, prefix, false)
	if err != nil {
		return err
	}
	traced, err := replay(st, sel, true)
	if err != nil {
		return err
	}
	rp := traced.rp
	if err := probeCalls(st, rp, sel); err != nil {
		return err
	}
	probe, err := coldProbe(bin, st.seed, rp.tr)
	if err != nil {
		return err
	}
	spans := rp.tr.spans
	trainings := append(rp.trainings, probe.rp.trainings...)
	hamiltonians := append(rp.hamiltonians, probe.rp.hamiltonians...)
	seedLookups := rp.seedLookups + probe.rp.seedLookups
	seedAdmitted := rp.seedAdmitted + probe.rp.seedAdmitted
	fmt.Printf("replay: %d requests compared, %d mismatches (untraced pass: %d requests, %d mismatches); cold probe: %d requests, %d trainings, %d mismatches\n",
		traced.compared, traced.mismatches, plain.compared, plain.mismatches, probe.compared, len(probe.rp.trainings), probe.mismatches)
	if err := writeTrace(out, st.spec.name, st.seed, spans); err != nil {
		return err
	}

	us, ms := time.Microsecond, time.Millisecond
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Server edge, measured from the served run.
	var edge, sizes []float64
	for _, r := range st.timed {
		if r.ok() {
			edge = append(edge, float64(r.latency)/float64(ms)-r.compile.CompileMillis)
			sizes = append(sizes, float64(len(r.body)))
		}
	}
	sort.Float64s(edge)
	q, _ := tailPercentile(len(edge))
	set("server.edge_ms", percentile(edge, 50), "ms")
	set("compilesvc.edge_p99_ms", percentile(edge, q), "ms")
	set("server.resp_bytes", median(sizes), "bytes")
	set("server.encode_us", spanMedian(spans, us, "server.encode"), "us")

	// Front end.
	set("qasm.parse_us", spanMedian(spans, us, "qasm.parse"), "us")
	set("mapping.map_us", spanMedian(spans, us, "mapping.map"), "us")
	set("mapping.swaps", mean(rp.swaps), "count")
	set("grouping.divide_us", spanMedian(spans, us, "grouping.divide"), "us")
	set("grouping.key_us", spanMedian(spans, us, "grouping.keys"), "us")
	set("grouping.dedup_us", spanMedian(spans, us, "grouping.dedup"), "us")
	set("grouping.groups", mean(rp.groups), "count")
	set("grouping.unique", mean(rp.unique), "count")
	set("accqoc.plan_us", spanMedian(spans, us, "accqoc.plan"), "us")
	set("accqoc.assemble_us", spanMedian(spans, us, "accqoc.assemble"), "us")

	// Store, from GET /v1/library/stats deltas over the timed phase.
	d := st.libDelta()
	set("libstore.lookup_us", spanMedian(spans, us, "libstore.lookup", "libstore.contains"), "us")
	set("libstore.hit_share", ratio(float64(d.Hits), float64(d.Hits+d.Misses)), "share")
	set("libstore.evictions", float64(d.Evictions), "count")
	set("libstore.trainings", float64(d.Trainings), "count")
	set("libstore.joined", float64(d.Joined), "count")
	set("usage.record_us", spanMedian(spans, us, "usage.record"), "us")

	// Training side.
	set("seedindex.nearest_us", spanMedian(spans, us, "seedindex.nearest"), "us")
	if d.SeedLookups > 0 {
		set("seedindex.seeded_share", float64(d.SeedSeeded)/float64(d.SeedLookups), "share")
	} else {
		set("seedindex.seeded_share", ratio(float64(seedAdmitted), float64(seedLookups)), "share")
	}
	set("simgraph.mst_us", spanMedian(spans, us, "simgraph.mst"), "us")
	set("precompile.train_ms", spanMedian(spans, ms, "precompile.train"), "ms")
	var iters, hooked, probes, useful int
	perIterNs := map[int][2]float64{}
	for _, t := range trainings {
		iters += t.iterations
		hooked += t.hookIters
		probes += t.probes
		useful += t.usefulIters
		a := perIterNs[t.qubits]
		perIterNs[t.qubits] = [2]float64{a[0] + float64(t.searchNs), a[1] + float64(t.iterations)}
	}
	nt := float64(max(len(trainings), 1))
	if hooked != iters {
		fmt.Printf("grape: IterationHook saw %d iterations, the searches reported %d\n", hooked, iters)
	}
	set("grape.iters_per_group", float64(hooked)/nt, "iterations")
	set("grape.probes_per_group", float64(probes)/nt, "count")
	set("grape.useful_iter_share", ratio(float64(useful), float64(iters)), "share")
	set("grape.us_per_iter_1q", ratio(perIterNs[1][0], perIterNs[1][1])/1e3, "us")
	set("grape.us_per_iter_2q", ratio(perIterNs[2][0], perIterNs[2][1])/1e3, "us")
	eigh, mul := kernelNs(hamiltonians)
	set("cmat.eigh4_ns", eigh, "ns")
	set("cmat.mul4_ns", mul, "ns")

	// Back end.
	set("latency.overall_us", spanMedian(spans, us, "latency.overall"), "us")
	set("gatepulse.overall_us", spanMedian(spans, us, "gatepulse.overall"), "us")
	set("crosstalk.fidelity_us", spanMedian(spans, us, "crosstalk.fidelity"), "us")

	// Calibration roll on a fresh warmed server, from GET /v1/devices.
	roll, took, err := rollProbe(bin, 120*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("roll probe: %d planned items, %d done, %d iterations, %.3f s\n", roll.Planned, roll.Done, roll.Iterations, took.Seconds())
	set("devreg.roll_items", float64(roll.Planned), "count")
	set("devreg.roll_iters", float64(roll.Iterations), "iterations")
	set("devreg.roll_seeded_share", ratio(float64(roll.WarmSeeded), float64(roll.Done)), "share")
	set("devreg.recover_s", took.Seconds(), "s")

	// The property each workload is built around, and the replay's proof.
	set("workload.evictions_per_request", float64(d.Evictions)/float64(max(len(st.timed), 1)), "count")
	set("replay.requests", float64(traced.compared+probe.compared), "count")
	set("replay.mismatches", float64(traced.mismatches+probe.mismatches), "count")
	n := len(prefix) - 1
	set("trace.overhead_pct", 100*(traced.doneAt[n].Seconds()/plain.doneAt[n].Seconds()-1), "%")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
