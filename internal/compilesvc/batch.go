package compilesvc

// Request batching and the one request pipeline. Async submissions
// against the same (device, epoch) namespace that arrive within one
// BatchWindow flush to the pool as a single task; a synchronous request
// is enqueued directly as a batch of one. A worker runs every batch the
// same way: plan each request, resolve the union of their unique groups
// once (coverage plan, MST ordering, singleflight training), rebuild each
// request's counters from the per-key outcome tally plus its own
// occurrence counts, and finish its latency or schedule tail. Batching
// lives in the training tier, not the HTTP layer, because only the tier
// that plans groups can know that two circuits share work — the routing
// tier sees opaque programs.
//
// Counter semantics under sharing: when two batched jobs reference the
// same cold group, the one shared training's iterations (and warm-seed
// credit) appear in BOTH responses — each job did wait on that GRAPE run,
// exactly like two concurrent sync requests where one trains and one
// joins, except the batch cannot tell who "owned" the training. The
// store- and pool-level counters (trainings, warm_seeded) still count it
// once.

import (
	"sync"
	"time"

	"accqoc"
	"accqoc/internal/devreg"
	"accqoc/internal/grouping"
	"accqoc/internal/latency"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
)

// reqTask is one request plus its lifecycle callbacks: an async
// submission's start and done hooks, or a synchronous caller's reply
// channel.
type reqTask struct {
	req   *Request
	start func() bool
	done  func(*Result, error)
	reply chan<- answer
	// begin stamps where CompileMillis starts: submission for an async
	// job (batch window included); zero for a synchronous request, which
	// is stamped at worker pickup.
	begin time.Time
	// waitSpan times submit → batch flush (async only); queueSpan times
	// enqueue → worker pickup.
	waitSpan  *obs.Span
	queueSpan *obs.Span
}

// deliver answers the request: on the reply channel of a synchronous
// caller, through the done hook of an async submission.
func (rt *reqTask) deliver(res *Result, err error) {
	if rt.reply != nil {
		rt.reply <- answer{res: res, err: err}
		return
	}
	rt.done(res, err)
}

func (rt *reqTask) fail(err error) { rt.deliver(nil, err) }

// answer is one request of a batch on its way through runBatch: its plan
// once the front end ran, then its result, delivered once the worker has
// left the in-flight count.
type answer struct {
	rt   *reqTask
	plan *accqoc.GroupPlan
	res  *Result
	err  error
}

// batcher groups async submissions by namespace until their window
// elapses, then flushes each group to the pool as one task.
type batcher struct {
	pool   *Pool
	window time.Duration

	mu     sync.Mutex
	closed bool
	groups map[*devreg.Namespace]*batchGroup
}

type batchGroup struct {
	tasks []*reqTask
	timer *time.Timer
}

func newBatcher(p *Pool, window time.Duration) *batcher {
	return &batcher{pool: p, window: window, groups: map[*devreg.Namespace]*batchGroup{}}
}

// add admits one async submission, arming the namespace's flush timer on
// first use. The namespace pointer is the batch key: one live namespace
// per (device, epoch), so requests across devices or epochs never batch.
func (b *batcher) add(req *Request, start func() bool, done func(*Result, error)) error {
	rt := &reqTask{req: req, start: start, done: done, begin: time.Now()}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	rt.waitSpan = req.Trace.StartSpan("batch_wait")
	g := b.groups[req.NS]
	if g == nil {
		g = &batchGroup{}
		b.groups[req.NS] = g
		ns := req.NS
		g.timer = time.AfterFunc(b.window, func() { b.flush(ns, g) })
	}
	g.tasks = append(g.tasks, rt)
	return nil
}

// flush moves one group out of the batcher and onto the pool. The jobs
// were already accepted with 202 (shedding load is the job store's
// admission control, not the queue's), so a full queue blocks the flush
// until a slot frees; Close interrupts the wait and fails the jobs.
func (b *batcher) flush(ns *devreg.Namespace, g *batchGroup) {
	b.mu.Lock()
	if b.groups[ns] != g {
		// Already flushed or swept by close.
		b.mu.Unlock()
		return
	}
	delete(b.groups, ns)
	b.mu.Unlock()

	t := &task{batch: g.tasks}
	for _, rt := range g.tasks {
		rt.waitSpan.End()
		rt.queueSpan = rt.req.Trace.StartSpan("queue")
	}
	if err := b.pool.enqueue(t, true); err != nil {
		t.fail(err)
	}
}

// close fails every unflushed submission with ErrClosed. Groups whose
// timer already entered flush are not in the map anymore and are handled
// by the flush/drain path.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	groups := b.groups
	b.groups = map[*devreg.Namespace]*batchGroup{}
	b.mu.Unlock()
	for _, g := range groups {
		g.timer.Stop()
		for _, rt := range g.tasks {
			rt.fail(ErrClosed)
		}
	}
}

// runBatch executes one batch on a worker: veto canceled jobs, plan each
// survivor, resolve the union of their unique groups in one shared pass,
// then count each job's outcomes from the tally and finish its own
// latency/schedule tail. It returns every surviving job's answer.
func (p *Pool) runBatch(tasks []*reqTask) []answer {
	pickup := time.Now()
	answers := make([]answer, 0, len(tasks))
	lead := -1 // the first planned job
	for _, rt := range tasks {
		// A vetoed task (canceled before pickup) gets no callbacks; the
		// submitter's start hook owns its cleanup.
		if rt.start != nil && !rt.start() {
			continue
		}
		if rt.begin.IsZero() {
			rt.begin = pickup
		}
		sp := rt.req.Trace.StartSpan("prepare")
		plan, err := rt.req.NS.Plan(rt.req.Prog)
		if err == nil {
			sp.End()
		}
		answers = append(answers, answer{rt: rt, plan: plan, err: err})
		if err == nil && lead < 0 {
			lead = len(answers) - 1
		}
	}
	if lead < 0 {
		return answers
	}
	// All tasks of a batch share one namespace by construction.
	ns := answers[lead].rt.req.NS
	union := answers[lead].plan.Unique
	if len(answers) > 1 {
		union = nil
		seen := map[string]bool{}
		for _, a := range answers {
			if a.err != nil {
				continue
			}
			for _, u := range a.plan.Unique {
				if !seen[u.Key] {
					seen[u.Key] = true
					union = append(union, u)
				}
			}
		}
	}

	// One shared resolve pass over the union. Plan/train spans land on
	// the first planned job's trace — it is the batch leader.
	tally := p.resolveGroups(ns, union, answers[lead].rt.req.Trace)
	for i := range answers {
		a := &answers[i]
		if a.err != nil {
			continue
		}
		prog := a.rt.req.Prog
		resp := &CompileResponse{
			Qubits:      prog.NumQubits,
			Gates:       prog.GateCount(),
			Epoch:       ns.Epoch,
			TotalGroups: len(a.plan.Prepared.Grouping.Groups),
		}
		countOutcomes(resp, a.plan.Unique, tally)
		a.res, a.err = finish(a.plan, ns, resp, tally, a.rt)
	}
	return answers
}

// countOutcomes fills one request's coverage, training, seeding and
// failure counters from the shared pass's per-key outcomes.
func countOutcomes(resp *CompileResponse, uniq []*grouping.UniqueGroup, tally map[string]keyOutcome) {
	var seedSum float64
	for _, u := range uniq {
		ko := tally[u.Key]
		if ko.outcome == libstore.OutcomeHit {
			resp.CoveredGroups += u.Count
			continue
		}
		// Trained here or joined another request's in-flight training:
		// either way this request waited on GRAPE for the group.
		resp.UncoveredUnique++
		if ko.failed {
			// Unreachable within the bracket: priced gate-based.
			resp.FailedGroups++
			continue
		}
		if ko.outcome == libstore.OutcomeTrained {
			resp.TrainingIterations += ko.iterations
			if ko.seeded {
				resp.WarmSeeded++
				seedSum += ko.seedDist
			}
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
}

// finish runs one request's tail over the resolved entries: the
// scheduled pulse program for circuit requests, Algorithm 3 latency
// otherwise.
func finish(plan *accqoc.GroupPlan, ns *devreg.Namespace, resp *CompileResponse, entries map[string]keyOutcome, rt *reqTask) (*Result, error) {
	tr := rt.req.Trace
	if rt.req.Circuit {
		circ, err := assembleCircuit(plan, ns, resp, entries, rt.req.Waveforms, tr, rt.begin)
		if err != nil {
			return nil, err
		}
		return &Result{Circ: circ}, nil
	}
	gr := plan.Prepared.Grouping
	dev := ns.Comp.Options().Device
	sp := tr.StartSpan("latency")
	overall, err := latency.OverallGroups(gr, func(i int) (float64, error) {
		if e := entries[plan.Keys[i]].entry; e != nil {
			return e.LatencyNs, nil
		}
		return accqoc.GateFallbackNs(gr.Groups[i], dev.Calibration), nil
	})
	if err != nil {
		return nil, err
	}
	sp.End()
	finalizeResponse(resp, plan.Prepared.Physical, dev, overall, rt.begin, tr)
	return &Result{Resp: resp}, nil
}
