package compilesvc

// This file is the plan/execute core of the serving pipeline: a
// stats-neutral coverage plan that MST-orders a batch's cache misses
// (§V-C), then singleflight training along the tree edges with warm-start
// seeds from the namespace's similarity index. A pass reports per-key
// outcomes rather than request counters, so one pass can serve a whole
// batch of requests.

import (
	"sort"

	"accqoc/internal/cmat"
	"accqoc/internal/devreg"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/simgraph"
	"accqoc/internal/similarity"
)

// trainStep is one planned cold training: a unique group, its canonical
// target unitary, and its warm-start edge from the similarity MST.
type trainStep struct {
	// cold indexes the request's cold set; trained results are recorded
	// under it so MST children can find their parent's entry.
	cold    int
	uniq    *grouping.UniqueGroup
	unitary *cmat.Matrix
	// warmFrom is the MST parent's cold index, -1 when the group is
	// rooted at the identity (then the seed index supplies the anchor).
	warmFrom int
	// warmDist is the MST edge weight to warmFrom.
	warmDist float64
}

// planColdSteps orders a request's uncovered unique groups for training:
// per size class, a Prim MST over the similarity graph (identity-rooted,
// §V-C) fixes both the order and the warm-start edges, exactly as the
// batch pre-compilation does — but over the live miss set of one
// request. Singleton classes train directly. Classes are planned in
// ascending size for determinism.
func planColdSteps(cold []*grouping.UniqueGroup, fn similarity.Func) ([]trainStep, error) {
	if len(cold) == 0 {
		return nil, nil
	}
	us := make([]*cmat.Matrix, len(cold))
	bySize := map[int][]int{}
	for i, u := range cold {
		m, err := u.Group.Unitary()
		if err != nil {
			return nil, err
		}
		us[i] = precompile.CanonicalUnitary(m)
		bySize[u.NumQubits] = append(bySize[u.NumQubits], i)
	}
	sizes := make([]int, 0, len(bySize))
	for sz := range bySize {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)

	steps := make([]trainStep, 0, len(cold))
	for _, sz := range sizes {
		idxs := bySize[sz]
		if len(idxs) == 1 {
			i := idxs[0]
			steps = append(steps, trainStep{cold: i, uniq: cold[i], unitary: us[i], warmFrom: -1})
			continue
		}
		classUs := make([]*cmat.Matrix, len(idxs))
		for j, i := range idxs {
			classUs[j] = us[i]
		}
		g, err := simgraph.Build(classUs, fn)
		if err != nil {
			return nil, err
		}
		mst, err := g.PrimMST(0)
		if err != nil {
			return nil, err
		}
		for _, st := range mst.CompilationSequence() {
			i := idxs[st.Group]
			warm := -1
			if st.WarmFrom >= 0 {
				warm = idxs[st.WarmFrom]
			}
			steps = append(steps, trainStep{
				cold: i, uniq: cold[i], unitary: us[i],
				warmFrom: warm, warmDist: st.Distance,
			})
		}
	}
	return steps, nil
}

// seedFor picks the warm start for one cold step: the MST parent when it
// trained earlier in this request (its pulse admitted under
// WarmThreshold, its latency always transferring as the binary-search
// hint), otherwise the nearest covered entry from the namespace's seed
// index (which, during a calibration roll, chains to the previous
// epoch's). Called only from inside the training closure, so
// planned-but-hit groups never pay for a lookup.
func seedFor(ns *devreg.Namespace, fn similarity.Func, st trainStep, trained []*precompile.Entry) (*precompile.Entry, float64) {
	if st.warmFrom >= 0 {
		if prev := trained[st.warmFrom]; prev != nil {
			seed := &precompile.Entry{NumQubits: st.uniq.NumQubits, LatencyNs: prev.LatencyNs}
			if st.warmDist <= similarity.WarmThreshold(fn, st.unitary.Rows) {
				seed.Pulse = prev.Pulse
			}
			return seed, st.warmDist
		}
	}
	if sd, ok := ns.Seeds.Nearest(st.unitary, st.uniq.NumQubits); ok {
		return &precompile.Entry{
			NumQubits: st.uniq.NumQubits,
			Pulse:     sd.Pulse,
			LatencyNs: sd.LatencyNs,
		}, sd.Distance
	}
	return nil, 0
}

// keyOutcome records how one unique key resolved during a shared pass:
// the entry its tail reads (nil when the training failed), and the
// outcome each request of the batch counts its own counters from (seeded
// and iterations are meaningful only for a successful training).
type keyOutcome struct {
	entry      *precompile.Entry
	outcome    libstore.Outcome
	failed     bool
	iterations int
	seeded     bool
	seedDist   float64
}

// resolve fetches or trains one unique group through the namespace
// store's singleflight. plan, when non-nil, supplies the warm-start seed,
// its distance, and the group's canonical target unitary; it is consulted
// only if this call actually executes the training (a hit or a joined
// in-flight training never evaluates it). A returned unitary pre-indexes
// the freshly trained entry under its target so the store hook's
// propagation is skipped (the index dedups on pulse identity). The entry
// is nil when the training failed.
func (p *Pool) resolve(ns *devreg.Namespace, u *grouping.UniqueGroup, cfg precompile.Config, plan func() (*precompile.Entry, float64, *cmat.Matrix), tr *obs.Trace) (*precompile.Entry, keyOutcome) {
	var ko keyOutcome
	sp := tr.StartSpan("train")
	e, outcome, err := ns.Store.GetOrTrain(u.Key, func() (*precompile.Entry, error) {
		var seed *precompile.Entry
		var unitary *cmat.Matrix
		if plan != nil {
			var d float64
			seed, d, unitary = plan()
			if seed != nil && seed.Pulse != nil {
				ko.seeded, ko.seedDist = true, d
			}
		}
		trained, terr := precompile.TrainGroup(u, cfg, seed)
		if terr == nil && ns.Seeds != nil && unitary != nil {
			ns.Seeds.InsertWithUnitary(trained, unitary)
		}
		return trained, terr
	})
	ko.outcome, ko.failed = outcome, err != nil
	trained := outcome == libstore.OutcomeTrained && err == nil
	if trained {
		ko.iterations = e.Iterations
		if ko.seeded {
			p.warmSeeded.Add(1)
		}
	}
	// A hit span is never ended: warm requests would otherwise bloat
	// every trace with hundreds of no-op lookups.
	if sp != nil && outcome != libstore.OutcomeHit {
		sp.Key = u.Key
		sp.Outcome = outcomeString(outcome)
		sp.Coalesced = outcome == libstore.OutcomeJoined
		if trained {
			sp.Iterations = e.Iterations
			sp.Infidelity = e.Infidelity
			sp.SeedDistance = -1 // trained cold
			if ko.seeded {
				sp.SeedDistance = ko.seedDist
			}
		}
		sp.End()
	}
	if err != nil {
		return nil, ko
	}
	return e, ko
}

// resolveGroups is the shared resolution core of every request batch:
// each unique group resolves against the namespace store — a warm key is
// a hit, a cold key trains exactly once across all concurrent requests
// (singleflight), MST-ordered with warm-start seeds when the seed index
// is on. It returns the per-key outcomes, resolved entries included.
func (p *Pool) resolveGroups(ns *devreg.Namespace, uniq []*grouping.UniqueGroup, tr *obs.Trace) map[string]keyOutcome {
	tally := make(map[string]keyOutcome, len(uniq))
	cfg := ns.Comp.Options().Precompile
	simFn := ns.SimilarityFn()
	record := func(u *grouping.UniqueGroup, plan func() (*precompile.Entry, float64, *cmat.Matrix)) *precompile.Entry {
		e, ko := p.resolve(ns, u, cfg, plan, tr)
		ko.entry = e
		tally[u.Key] = ko
		return e
	}
	var steps []trainStep
	var covered, cold []*grouping.UniqueGroup
	planned := false
	if ns.Seeds != nil {
		// Plan: partition into covered and cold without touching
		// counters or LRU order, then MST-order the cold set.
		psp := tr.StartSpan("plan")
		covered = make([]*grouping.UniqueGroup, 0, len(uniq))
		for _, u := range uniq {
			if ns.Store.Contains(u.Key) {
				covered = append(covered, u)
			} else {
				cold = append(cold, u)
			}
		}
		var perr error
		steps, perr = planColdSteps(cold, simFn)
		planned = perr == nil
		psp.End()
	}
	if !planned {
		// Index disabled: resolve in deduplication order with cold
		// random-init trainings — the pre-index serving path, preserved
		// byte for byte. Planning must also never fail a request harder
		// than that path would: the same defect (an unbuildable group
		// unitary, a broken similarity function) surfaces inside
		// TrainGroup there, where the group is priced gate-based and
		// counted in failed_groups.
		for _, u := range uniq {
			record(u, nil)
		}
	} else {
		// Execute: covered keys resolve as hits first, then the cold
		// set trains along the tree edges; every trained group becomes
		// a seed candidate for its MST children later in this pass.
		for _, u := range covered {
			u := u
			// A hit never evaluates the closure; it exists for the rare
			// key evicted between plan and execute, which then trains as
			// an identity-rooted step (index-seeded) instead of cold.
			record(u, func() (*precompile.Entry, float64, *cmat.Matrix) {
				m, uerr := u.Group.Unitary()
				if uerr != nil {
					return nil, 0, nil
				}
				cu := precompile.CanonicalUnitary(m)
				seed, d := seedFor(ns, simFn, trainStep{uniq: u, unitary: cu, warmFrom: -1}, nil)
				return seed, d, cu
			})
		}
		trained := make([]*precompile.Entry, len(cold))
		for _, st := range steps {
			st := st
			trained[st.cold] = record(st.uniq, func() (*precompile.Entry, float64, *cmat.Matrix) {
				seed, d := seedFor(ns, simFn, st, trained)
				return seed, d, st.unitary
			})
		}
	}
	if ns.Usage != nil && len(uniq) > 0 {
		// File the request window with the cost ledger: resolveGroups is
		// the single chokepoint of every request, so a batch's shared
		// pass records its union as one co-occurrence window. Pure
		// observation — no decision downstream of this call reads the
		// ledger.
		keys := make([]string, len(uniq))
		for i, u := range uniq {
			keys[i] = u.Key
		}
		ns.Usage.RecordRequest(keys)
	}
	return tally
}

// outcomeString names a store outcome for trace spans.
func outcomeString(o libstore.Outcome) string {
	switch o {
	case libstore.OutcomeTrained:
		return "trained"
	case libstore.OutcomeJoined:
		return "joined"
	default:
		return "hit"
	}
}
