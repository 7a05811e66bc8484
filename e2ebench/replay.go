package main

// The traced replay: the served request stream runs again in-process
// through the public functions the training tier calls, in the order it
// calls them, with one span per call. Spans are kept in memory and
// written out when the run ends. The replay rebuilds each response and
// compares it with the served one, so the spans are shown to time the
// work the server did.

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/cmat"
	"accqoc/internal/compilesvc"
	"accqoc/internal/crosstalk"
	"accqoc/internal/devreg"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/latency"
	"accqoc/internal/libstore"
	"accqoc/internal/mapping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/qasm"
	"accqoc/internal/simgraph"
	"accqoc/internal/similarity"
	"accqoc/internal/topology"
	"accqoc/internal/usage"
)

// span is one timed call. Spans of one replayed request share Req; Parent
// is the ID of the enclosing span (-1 at the top).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records nested spans of a sequential replay. When off, begin and
// end do nothing, which is the untraced baseline of the overhead figure.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// rename relabels a span after the fact (a store call is a lookup or a
// training depending on its outcome).
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// trainStat is one training the replay ran.
type trainStat struct {
	qubits      int
	iterations  int
	probes      int
	usefulIters int
	searchNs    int64
	// hookIters are the accepted optimizer iterations
	// grape.Options.IterationHook reported during the search.
	hookIters int
}

// replayer owns one in-process namespace configured like the server's
// default device and replays requests against it.
type replayer struct {
	tr  *tracer
	ns  *devreg.Namespace
	dev *topology.Device

	trainings []trainStat
	// hamiltonians samples 4×4 segment Hamiltonians of trained two-qubit
	// pulses for the cmat kernel timings.
	hamiltonians []*cmat.Matrix
	// hookIters counts accepted optimizer iterations seen by
	// grape.Options.IterationHook; seedLookups/seedAdmitted count
	// seedindex.Index observer calls.
	hookIters                 int
	seedLookups, seedAdmitted int
	swaps, groups, unique     []float64
}

// newReplayer builds the namespace with the server's defaults (Melbourne,
// map2b4l, the default flags below bootServer, usage ledger on, LRU) plus
// the workload's store settings, and preloads lib.
func newReplayer(s spec, lib []*precompile.Entry, traced bool) (*replayer, error) {
	rp := &replayer{tr: &tracer{on: traced, t0: time.Now()}}
	opts := accqoc.Options{
		Device: topology.Melbourne(),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape: grape.Options{
				TargetInfidelity: targetInfidelity,
				MaxIterations:    defaultMaxIter,
				Parallel:         -1,
				IterationHook:    func(float64, float64) { rp.hookIters++ },
			},
		},
	}
	storeOpts := libstore.Options{Shards: defaultShards, Capacity: s.capacity}
	if s.shards > 0 {
		storeOpts.Shards = s.shards
	}
	reg, err := devreg.New(devreg.Config{
		Base:         opts,
		StoreOptions: storeOpts,
		Usage:        usage.Options{HistorySize: defaultUsageHistory},
		CachePolicy:  devreg.PolicyLRU,
		SeedObserver: func(_ float64, admitted bool) {
			rp.seedLookups++
			if admitted {
				rp.seedAdmitted++
			}
		},
	}, devreg.Profile{Name: deviceName, Device: opts.Device}, libstore.New(storeOpts))
	if err != nil {
		return nil, err
	}
	if rp.ns, err = reg.Current(""); err != nil {
		return nil, err
	}
	rp.dev = rp.ns.Comp.Options().Device
	for _, e := range lib {
		rp.ns.Store.Put(e)
	}
	return rp, nil
}

// compile replays one POST /v1/compile: the steps of the training tier's
// compile path, each call in its own span.
func (rp *replayer) compile(src string) (*compilesvc.CompileResponse, error) {
	t := rp.tr
	defer t.end(t.begin("request"))
	prog, err := rp.parse(src)
	if err != nil {
		return nil, err
	}
	fe, err := rp.frontEnd(prog)
	if err != nil {
		return nil, err
	}
	resp := rp.newResponse(prog, fe.gr, fe.swaps, len(fe.uniq))
	entries := rp.resolve(resp, fe.uniq)
	overall, err := rp.overall(fe.gr, fe.keys, entries)
	if err != nil {
		return nil, err
	}
	rp.finalize(resp, fe.phys, overall)
	s := t.begin("server.encode")
	_, err = json.Marshal(resp)
	t.end(s)
	return resp, err
}

// newResponse starts a request's response and records its front-end
// counts.
func (rp *replayer) newResponse(prog *circuit.Circuit, gr *grouping.Grouping, swaps, unique int) *compilesvc.CompileResponse {
	rp.swaps = append(rp.swaps, float64(swaps))
	rp.groups = append(rp.groups, float64(len(gr.Groups)))
	rp.unique = append(rp.unique, float64(unique))
	return &compilesvc.CompileResponse{
		Qubits: prog.NumQubits, Gates: prog.GateCount(), Epoch: rp.ns.Epoch, TotalGroups: len(gr.Groups),
	}
}

// circuit replays one POST /v1/circuits/compile.
func (rp *replayer) circuit(src string, waveforms bool) (*compilesvc.CircuitResponse, error) {
	t := rp.tr
	defer t.end(t.begin("request"))
	prog, err := rp.parse(src)
	if err != nil {
		return nil, err
	}
	s := t.begin("accqoc.plan")
	plan, err := rp.ns.Plan(prog)
	t.end(s)
	if err != nil {
		return nil, err
	}
	resp := rp.newResponse(prog, plan.Prepared.Grouping, plan.Prepared.MapResult.SwapCount, len(plan.Unique))
	entries := rp.resolve(resp, plan.Unique)

	sched, err := rp.assemble(plan, entries)
	if err != nil {
		return nil, err
	}
	s = t.begin("accqoc.validate")
	err = sched.Validate()
	t.end(s)
	if err != nil {
		return nil, err
	}
	rp.finalize(resp, plan.Prepared.Physical, sched.MakespanNs)
	out := &compilesvc.CircuitResponse{Compile: *resp, MakespanNs: sched.MakespanNs}
	s = t.begin("compilesvc.waveform_refs")
	refs := map[string]string{}
	for _, sl := range sched.Pulses {
		w := compilesvc.ScheduledPulseWire{Group: sl.Group, Qubits: sl.Qubits, StartNs: sl.StartNs, DurationNs: sl.DurationNs, Mirrored: sl.Mirrored}
		if e, ok := entries[sl.Key]; sl.Key != "" && ok && e.Pulse != nil {
			ref, cached := refs[sl.Key]
			if !cached {
				ref = compilesvc.WaveformRef(e)
				refs[sl.Key] = ref
			}
			w.Waveform = ref
			if waveforms {
				if out.Waveforms == nil {
					out.Waveforms = map[string]*pulse.Pulse{}
				}
				out.Waveforms[ref] = e.Pulse
			}
		}
		out.Schedule = append(out.Schedule, w)
	}
	t.end(s)
	s = t.begin("server.encode")
	_, err = json.Marshal(out)
	t.end(s)
	return out, err
}

// frontEnd is the compile path's front half: Compiler.Prepare spelled out
// call by call (CCX decomposition, mapping, swap lowering, grouping,
// crosstalk metric), then the canonical keys and their deduplication.
type frontEnd struct {
	phys  *circuit.Circuit
	gr    *grouping.Grouping
	keys  []string
	uniq  []*grouping.UniqueGroup
	swaps int
}

func (rp *replayer) frontEnd(prog *circuit.Circuit) (*frontEnd, error) {
	t := rp.tr
	opts := rp.ns.Comp.Options()
	sp := t.begin("accqoc.prepare")
	s := t.begin("circuit.decompose_ccx")
	work := prog.DecomposeCCX()
	t.end(s)
	s = t.begin("mapping.map")
	mapped, err := mapping.Map(work, opts.Device, opts.Mapping)
	t.end(s)
	if err != nil {
		t.end(sp)
		return nil, err
	}
	phys := mapped.Mapped
	if opts.Policy.DecomposeSwap {
		s = t.begin("mapping.lower_swaps")
		phys, err = mapping.DecomposeSwaps(phys, opts.Device)
		t.end(s)
		if err != nil {
			t.end(sp)
			return nil, err
		}
	}
	s = t.begin("grouping.divide")
	gr, err := grouping.Divide(phys, opts.Policy)
	t.end(s)
	if err != nil {
		t.end(sp)
		return nil, err
	}
	s = t.begin("crosstalk.metric")
	crosstalk.Metric(phys, opts.Device)
	t.end(s)
	t.end(sp)

	s = t.begin("grouping.keys")
	keys, err := precompile.Keys(gr)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("grouping.dedup")
	uniq := grouping.DeduplicateKeyed(gr.Groups, keys)
	t.end(s)
	return &frontEnd{phys: phys, gr: gr, keys: keys, uniq: uniq, swaps: mapped.SwapCount}, nil
}

// overall is Algorithm 3 over resolved entries, gate-based pricing for
// the rest.
func (rp *replayer) overall(gr *grouping.Grouping, keys []string, entries map[string]*precompile.Entry) (float64, error) {
	s := rp.tr.begin("latency.overall")
	defer rp.tr.end(s)
	return latency.OverallGroups(gr, func(i int) (float64, error) {
		if e, ok := entries[keys[i]]; ok {
			return e.LatencyNs, nil
		}
		return accqoc.GateFallbackNs(gr.Groups[i], rp.dev.Calibration), nil
	})
}

func (rp *replayer) parse(src string) (*circuit.Circuit, error) {
	s := rp.tr.begin("qasm.parse")
	defer rp.tr.end(s)
	return qasm.ParseBudget(src, 4096)
}

// assemble lays a resolved plan out on the timeline (lookup only).
func (rp *replayer) assemble(plan *accqoc.GroupPlan, entries map[string]*precompile.Entry) (*accqoc.Schedule, error) {
	s := rp.tr.begin("accqoc.assemble")
	defer rp.tr.end(s)
	res := plan.Result()
	sched, err := accqoc.AssembleSchedule(res, rp.dev.Calibration, func(key string) (*precompile.Entry, bool) {
		e, ok := entries[key]
		return e, ok
	})
	if err != nil {
		return nil, err
	}
	res.OverallLatencyNs = sched.MakespanNs
	return sched, nil
}

// finalize fills the latency and fidelity tail of a response.
func (rp *replayer) finalize(resp *compilesvc.CompileResponse, phys *circuit.Circuit, overall float64) {
	t := rp.tr
	resp.QOCLatencyNs = overall
	s := t.begin("gatepulse.overall")
	resp.GateLatencyNs = gatepulse.Overall(phys, rp.dev.Calibration)
	t.end(s)
	if overall > 0 {
		resp.LatencyReduction = resp.GateLatencyNs / overall
	}
	s = t.begin("crosstalk.fidelity")
	resp.EstimatedFidelity = crosstalk.ProgramFidelity(phys, rp.dev, overall)
	t.end(s)
}

// coldStep is one planned training: a cold group, its canonical target,
// and its warm-start edge in the similarity MST (-1: identity-rooted).
type coldStep struct {
	cold     int
	uniq     *grouping.UniqueGroup
	unitary  *cmat.Matrix
	warmFrom int
	warmDist float64
}

// resolve resolves every unique group against the store as the training
// tier does: partition covered from cold, MST-order the cold set per size
// class, then look up covered keys and train cold ones along the tree.
func (rp *replayer) resolve(resp *compilesvc.CompileResponse, uniq []*grouping.UniqueGroup) map[string]*precompile.Entry {
	t, ns := rp.tr, rp.ns
	entries := make(map[string]*precompile.Entry, len(uniq))
	simFn := ns.SimilarityFn()
	ps := t.begin("compilesvc.plan")
	var covered, cold []*grouping.UniqueGroup
	for _, u := range uniq {
		s := t.begin("libstore.contains")
		ok := ns.Store.Contains(u.Key)
		t.end(s)
		if ok {
			covered = append(covered, u)
		} else {
			cold = append(cold, u)
		}
	}
	steps, perr := rp.planCold(cold, simFn)
	t.end(ps)
	var seedSum float64
	if perr != nil {
		for _, u := range uniq {
			rp.resolveOne(resp, entries, u, nil, &seedSum)
		}
	} else {
		for _, u := range covered {
			u := u
			rp.resolveOne(resp, entries, u, func() (*precompile.Entry, float64, *cmat.Matrix) {
				m, err := u.Group.Unitary()
				if err != nil {
					return nil, 0, nil
				}
				cu := precompile.CanonicalUnitary(m)
				seed, d := rp.seedFor(simFn, coldStep{uniq: u, unitary: cu, warmFrom: -1}, nil)
				return seed, d, cu
			}, &seedSum)
		}
		trained := make([]*precompile.Entry, len(cold))
		for _, st := range steps {
			st := st
			trained[st.cold] = rp.resolveOne(resp, entries, st.uniq, func() (*precompile.Entry, float64, *cmat.Matrix) {
				seed, d := rp.seedFor(simFn, st, trained)
				return seed, d, st.unitary
			}, &seedSum)
		}
	}
	if resp.WarmSeeded > 0 {
		resp.SeedDistance = seedSum / float64(resp.WarmSeeded)
	}
	if resp.TotalGroups > 0 {
		resp.CoverageRate = float64(resp.CoveredGroups) / float64(resp.TotalGroups)
	} else {
		resp.CoverageRate = 1
	}
	resp.WarmServed = resp.UncoveredUnique == 0
	if ns.Usage != nil && len(uniq) > 0 {
		keys := make([]string, len(uniq))
		for i, u := range uniq {
			keys[i] = u.Key
		}
		s := t.begin("usage.record")
		ns.Usage.RecordRequest(keys)
		t.end(s)
	}
	return entries
}

// planCold orders the cold set like the training tier: per size class
// (ascending), a Prim MST over the similarity graph fixes the order and
// the warm-start edges; singleton classes train directly.
func (rp *replayer) planCold(cold []*grouping.UniqueGroup, fn similarity.Func) ([]coldStep, error) {
	t := rp.tr
	us := make([]*cmat.Matrix, len(cold))
	bySize := map[int][]int{}
	for i, u := range cold {
		s := t.begin("grouping.unitary")
		m, err := u.Group.Unitary()
		if err == nil {
			us[i] = precompile.CanonicalUnitary(m)
		}
		t.end(s)
		if err != nil {
			return nil, err
		}
		bySize[u.NumQubits] = append(bySize[u.NumQubits], i)
	}
	sizes := make([]int, 0, len(bySize))
	for sz := range bySize {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	var steps []coldStep
	for _, sz := range sizes {
		idxs := bySize[sz]
		if len(idxs) == 1 {
			steps = append(steps, coldStep{cold: idxs[0], uniq: cold[idxs[0]], unitary: us[idxs[0]], warmFrom: -1})
			continue
		}
		classUs := make([]*cmat.Matrix, len(idxs))
		for j, i := range idxs {
			classUs[j] = us[i]
		}
		s := t.begin("simgraph.mst")
		seq, err := mstSequence(classUs, fn)
		t.end(s)
		if err != nil {
			return nil, err
		}
		for _, st := range seq {
			warm := -1
			if st.WarmFrom >= 0 {
				warm = idxs[st.WarmFrom]
			}
			i := idxs[st.Group]
			steps = append(steps, coldStep{cold: i, uniq: cold[i], unitary: us[i], warmFrom: warm, warmDist: st.Distance})
		}
	}
	return steps, nil
}

func mstSequence(us []*cmat.Matrix, fn similarity.Func) ([]simgraph.Step, error) {
	g, err := simgraph.Build(us, fn)
	if err != nil {
		return nil, err
	}
	mst, err := g.PrimMST(0)
	if err != nil {
		return nil, err
	}
	return mst.CompilationSequence(), nil
}

// seedFor picks a cold step's warm start: its MST parent when trained
// earlier in the request, else the nearest covered entry of the index.
func (rp *replayer) seedFor(fn similarity.Func, st coldStep, trained []*precompile.Entry) (*precompile.Entry, float64) {
	if st.warmFrom >= 0 {
		if prev := trained[st.warmFrom]; prev != nil {
			seed := &precompile.Entry{NumQubits: st.uniq.NumQubits, LatencyNs: prev.LatencyNs}
			if st.warmDist <= similarity.WarmThreshold(fn, st.unitary.Rows) {
				seed.Pulse = prev.Pulse
			}
			return seed, st.warmDist
		}
	}
	s := rp.tr.begin("seedindex.nearest")
	sd, ok := rp.ns.Seeds.Nearest(st.unitary, st.uniq.NumQubits)
	rp.tr.end(s)
	if ok {
		return &precompile.Entry{NumQubits: st.uniq.NumQubits, Pulse: sd.Pulse, LatencyNs: sd.LatencyNs}, sd.Distance
	}
	return nil, 0
}

// resolveOne fetches or trains one unique group through the store's
// singleflight and updates the response counters as the service does.
func (rp *replayer) resolveOne(resp *compilesvc.CompileResponse, entries map[string]*precompile.Entry, u *grouping.UniqueGroup, plan func() (*precompile.Entry, float64, *cmat.Matrix), seedSum *float64) *precompile.Entry {
	t, ns := rp.tr, rp.ns
	cfg := ns.Comp.Options().Precompile
	var seeded bool
	var seedDist float64
	s := t.begin("libstore.get_or_train")
	e, outcome, err := ns.Store.GetOrTrain(u.Key, func() (*precompile.Entry, error) {
		var seed *precompile.Entry
		var unitary *cmat.Matrix
		if plan != nil {
			var d float64
			seed, d, unitary = plan()
			if seed != nil && seed.Pulse != nil {
				seeded, seedDist = true, d
			}
		}
		trained, terr := rp.train(u, cfg, seed)
		if terr == nil && ns.Seeds != nil && unitary != nil {
			is := t.begin("seedindex.insert")
			ns.Seeds.InsertWithUnitary(trained, unitary)
			t.end(is)
		}
		return trained, terr
	})
	t.end(s)
	if outcome == libstore.OutcomeHit {
		t.rename(s, "libstore.lookup")
		resp.CoveredGroups += u.Count
	} else {
		resp.UncoveredUnique++
		if outcome == libstore.OutcomeTrained && err == nil {
			resp.TrainingIterations += e.Iterations
			if seeded {
				resp.WarmSeeded++
				*seedSum += seedDist
			}
		}
	}
	if err != nil {
		resp.FailedGroups++
		return nil
	}
	entries[u.Key] = e
	return e
}

// train is precompile.TrainGroup spelled out in its public parts, so the
// binary search's probes are visible: the group's canonical target, the
// per-size grid and bracket, the seed's pulse and latency hint, then
// grape.CompileBinarySearch.
func (rp *replayer) train(g *grouping.UniqueGroup, cfg precompile.Config, seed *precompile.Entry) (*precompile.Entry, error) {
	t := rp.tr
	defer t.end(t.begin("precompile.train"))
	sys, err := hamiltonian.ForQubits(g.NumQubits, cfg.Ham)
	if err != nil {
		return nil, err
	}
	u, err := g.Group.Unitary()
	if err != nil {
		return nil, err
	}
	cu := precompile.CanonicalUnitary(u)
	gopts := cfg.Grape
	gopts.Segments = precompile.SegmentsFor(g.NumQubits)
	sopts := cfg.SearchFor(g.NumQubits)
	var seedPulse *pulse.Pulse
	if seed != nil && seed.NumQubits == g.NumQubits {
		seedPulse = seed.Pulse
		sopts.HintDuration = seed.LatencyNs
	}
	hooked := rp.hookIters
	begin := time.Now()
	s := t.begin("grape.search")
	res, err := grape.CompileBinarySearch(sys, cu, gopts, sopts, seedPulse)
	t.end(s)
	wall := time.Since(begin)
	if err != nil {
		return nil, fmt.Errorf("group %s unreachable in bracket: %w", g.Key, err)
	}
	ts := trainStat{
		qubits: g.NumQubits, iterations: res.TotalIterations, probes: len(res.Probes),
		searchNs: wall.Nanoseconds(), hookIters: rp.hookIters - hooked,
	}
	for _, p := range res.Probes {
		if p.Converged {
			ts.usefulIters += p.Iterations
		}
	}
	rp.trainings = append(rp.trainings, ts)
	if g.NumQubits == 2 && len(rp.hamiltonians) < 256 {
		amps := make([]float64, len(sys.Controls))
		for k := 0; k < res.Pulse.Segments(); k++ {
			for c := range amps {
				amps[c] = res.Pulse.Amps[c][k]
			}
			rp.hamiltonians = append(rp.hamiltonians, sys.Assemble(amps))
		}
	}
	return &precompile.Entry{
		Key: g.Key, NumQubits: g.NumQubits, Pulse: res.Pulse, LatencyNs: res.Duration,
		Iterations: res.TotalIterations, Frequency: g.Count, Infidelity: res.Infidelity,
		TrainWallNs: float64(wall.Nanoseconds()), Seeded: seedPulse != nil,
	}, nil
}
