package compilesvc

// The background-training lane: one goroutine per pool that re-trains
// library entries off the request path. It takes work from two sources,
// in this order:
//
//  1. roll — the open calibration rolls handed over by Roll: the old
//     epoch's entries, hottest first, each seeded by its own old-epoch
//     pulse at its native duration;
//  2. prefetch (once StartPrefetch enabled it) — every idle cycle, each
//     device's usage-ledger Predictor names likely-next keys given the
//     most recent request window; the first predicted miss with a
//     retained training target is trained, seeded by the seed index's
//     nearest covered entry. Its objective is the ledger's regret
//     counter: every predicted miss re-covered while idle is an eviction
//     the ledger would otherwise have charged.
//
// Both sources feed one retrain unit that runs on a pool worker:
// Contains → GetOrTrain(RetrainEntry) → InsertWithUnitary, through the
// namespace store's ordinary singleflight, so a racing request and a
// background item never train the same key twice. Request traffic always
// wins: an item is offered only while the pool is idle (empty queue, a
// free worker), and the worker re-checks the queue at pickup — an item
// that finds traffic queued behind it yields untried. A yielded roll item
// is offered again (the roll's cursor advances only on Note). A prefetch
// cycle that meets a busy pool predicts and counts nothing; a prefetch
// item that passed the gate and then yields is counted abandoned. While
// the pool is busy the lane waits on the pool's idle signal; Close ends
// the lane between items. Items run strictly one at a time.

import (
	"sync"
	"sync/atomic"
	"time"

	"accqoc/internal/cmat"
	"accqoc/internal/devreg"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
)

// prefetchDepth is how many ranked predictions a prefetch cycle examines
// per device (the first actionable one is trained).
const prefetchDepth = 4

// PrefetchStats is one device's (or the fleet-aggregated) counter
// snapshot — the accqoc_prefetch_* metric families and the additive
// stats/usage endpoint block.
type PrefetchStats struct {
	// Predicted counts ranked predictions examined; NoTarget the subset
	// that was uncovered but had no retained training target.
	Predicted int64 `json:"predicted"`
	NoTarget  int64 `json:"no_target"`
	// Trained counts speculative trainings that ran to completion, Seeded
	// those that warm-started from the seed index, Iterations their summed
	// GRAPE cost.
	Trained    int64 `json:"trained"`
	Seeded     int64 `json:"seeded"`
	Iterations int64 `json:"iterations"`
	// Skipped counts items already covered (or covered by a racing
	// request's training) by execution time; Abandoned items that passed
	// the idle gate and then yielded (request traffic at pickup, or a
	// closing pool); Failed trainings that did not converge.
	Skipped   int64 `json:"skipped"`
	Abandoned int64 `json:"abandoned"`
	Failed    int64 `json:"failed"`
}

type prefetchCounters struct {
	predicted, noTarget, trained, seeded atomic.Int64
	iterations, skipped, abandoned       atomic.Int64
	failed                               atomic.Int64
}

func (c *prefetchCounters) snapshot() PrefetchStats {
	return PrefetchStats{
		Predicted:  c.predicted.Load(),
		NoTarget:   c.noTarget.Load(),
		Trained:    c.trained.Load(),
		Seeded:     c.seeded.Load(),
		Iterations: c.iterations.Load(),
		Skipped:    c.skipped.Load(),
		Abandoned:  c.abandoned.Load(),
		Failed:     c.failed.Load(),
	}
}

func (s PrefetchStats) add(o PrefetchStats) PrefetchStats {
	s.Predicted += o.Predicted
	s.NoTarget += o.NoTarget
	s.Trained += o.Trained
	s.Seeded += o.Seeded
	s.Iterations += o.Iterations
	s.Skipped += o.Skipped
	s.Abandoned += o.Abandoned
	s.Failed += o.Failed
	return s
}

// Lane is a pool's background-training lane. The pool builds it, starts
// it, and stops it first on Close.
type Lane struct {
	pool *Pool
	// wake signals a newly offered roll; enable carries the prefetch
	// cycle period once StartPrefetch runs.
	wake   chan struct{}
	enable chan time.Duration
	wg     sync.WaitGroup
	// cycle serializes lane cycles between the loop and RunOnce callers.
	cycle sync.Mutex

	mu       sync.Mutex
	stopped  bool
	rolls    []*devreg.Roll
	reg      *devreg.Registry
	counters map[string]*prefetchCounters
}

func newLane(p *Pool) *Lane {
	l := &Lane{
		pool:     p,
		wake:     make(chan struct{}, 1),
		enable:   make(chan time.Duration, 1),
		counters: map[string]*prefetchCounters{},
	}
	l.wg.Add(1)
	go l.loop()
	return l
}

// StartPrefetch turns on the prefetch source over reg's devices, cycling
// every interval (default 50ms). Call at most once.
func (l *Lane) StartPrefetch(reg *devreg.Registry, interval time.Duration) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	l.mu.Lock()
	l.reg = reg
	l.mu.Unlock()
	l.enable <- interval
}

func (l *Lane) loop() {
	defer l.wg.Done()
	var tick <-chan time.Time
	for {
		select {
		case <-l.pool.closing:
			return
		case iv := <-l.enable:
			t := time.NewTicker(iv)
			defer t.Stop()
			tick = t.C
			continue
		case <-l.wake:
			if !l.hasRoll() {
				continue
			}
		case <-tick:
		}
		for {
			// Close ends the loop between items, even mid-roll on an idle
			// pool; stop then finishes the rolls still open.
			select {
			case <-l.pool.closing:
				return
			default:
			}
			if l.pool.busy() {
				select {
				case <-l.pool.idle:
					continue
				case <-l.pool.closing:
					return
				}
			}
			if !l.RunOnce() {
				break
			}
		}
	}
}

// offer queues an opened roll behind any earlier ones.
func (l *Lane) offer(roll *devreg.Roll) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		roll.Finish()
		return
	}
	l.rolls = append(l.rolls, roll)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// stop waits out the loop (the pool's closing signal ends it) and
// finishes every roll still open.
func (l *Lane) stop() {
	l.wg.Wait()
	l.mu.Lock()
	l.stopped = true
	rolls := l.rolls
	l.rolls = nil
	l.mu.Unlock()
	for _, r := range rolls {
		r.Finish()
	}
}

func (l *Lane) hasRoll() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rolls) > 0
}

// nextRoll returns the oldest open roll and the item at its cursor,
// finishing rolls whose plan is exhausted or superseded on the way: a
// newer calibration makes the rest of a plan training into a dead epoch,
// so it is abandoned and the obsolete namespace can retire.
func (l *Lane) nextRoll() (*devreg.Roll, *devreg.RecompItem) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.rolls) > 0 {
		roll := l.rolls[0]
		if !roll.Superseded() {
			if rec, ok := roll.Next(); ok {
				return roll, rec
			}
		}
		roll.Finish()
		l.rolls = l.rolls[1:]
	}
	return nil, nil
}

// RunOnce runs one lane cycle and reports whether roll work remains: the
// next item of the oldest open roll when there is one, otherwise one
// prefetch attempt per device. Exported so tests and replay benchmarks
// can drive the lane deterministically instead of racing its loop.
func (l *Lane) RunOnce() bool {
	l.cycle.Lock()
	defer l.cycle.Unlock()
	if roll, rec := l.nextRoll(); roll != nil {
		it := &bgItem{ns: roll.New, key: rec.Key, unitary: rec.Unitary, old: rec.Old}
		switch l.pool.background(it) {
		case bgYielded:
			// Offered again next cycle.
		case bgSkipped:
			roll.Note(true, false, false, 0)
		case bgTrained:
			roll.Note(false, false, it.seeded, it.iters)
		case bgFailed:
			roll.Note(false, true, false, it.iters)
		}
		roll, _ = l.nextRoll()
		return roll != nil
	}
	l.mu.Lock()
	reg := l.reg
	l.mu.Unlock()
	if reg != nil {
		for _, name := range reg.Names() {
			l.prefetch(reg, name)
		}
	}
	return false
}

// prefetch trains at most one predicted miss for one device.
func (l *Lane) prefetch(reg *devreg.Registry, name string) {
	ns, err := reg.Acquire(name)
	if err != nil {
		return
	}
	defer ns.Release()
	// Idle gate: a busy pool is not a prefetch attempt, so nothing is
	// predicted or counted.
	if ns.Usage == nil || ns.Targets == nil || l.pool.busy() {
		return
	}
	window := ns.Usage.LastWindow()
	if len(window) == 0 {
		return
	}
	c := l.countersFor(name)
	preds := ns.Usage.Predictor().Predict(window, prefetchDepth)
	c.predicted.Add(int64(len(preds)))
	for _, pr := range preds {
		if ns.Store.Contains(pr.Key) {
			continue
		}
		tgt, ok := ns.Targets.Get(pr.Key)
		if !ok {
			c.noTarget.Add(1)
			continue
		}
		it := &bgItem{ns: ns, key: pr.Key, unitary: tgt.Unitary, target: tgt}
		switch l.pool.background(it) {
		case bgYielded:
			c.abandoned.Add(1)
		case bgSkipped:
			c.skipped.Add(1)
		case bgTrained:
			c.trained.Add(1)
			c.iterations.Add(int64(it.iters))
			if it.seeded {
				c.seeded.Add(1)
			}
		case bgFailed:
			c.failed.Add(1)
		}
		return
	}
}

// Stats returns the fleet-aggregated prefetch counter snapshot.
func (l *Lane) Stats() PrefetchStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s PrefetchStats
	for _, c := range l.counters {
		s = s.add(c.snapshot())
	}
	return s
}

// StatsFor returns one device's prefetch counter snapshot.
func (l *Lane) StatsFor(device string) PrefetchStats {
	l.mu.Lock()
	c := l.counters[device]
	l.mu.Unlock()
	if c == nil {
		return PrefetchStats{}
	}
	return c.snapshot()
}

func (l *Lane) countersFor(device string) *prefetchCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.counters[device]
	if c == nil {
		c = &prefetchCounters{}
		l.counters[device] = c
	}
	return c
}

// bgOutcome is how one lane item resolved.
type bgOutcome int

const (
	bgYielded bgOutcome = iota
	bgSkipped
	bgTrained
	bgFailed
)

// bgItem is one retrain unit of lane work: re-train key toward unitary in
// ns. The seed is the only difference between sources: a roll item
// carries its old-epoch entry; a prefetch item carries its retained
// target (qubit count and latency hint) and is seeded from the seed
// index at training time.
type bgItem struct {
	ns      *devreg.Namespace
	key     string
	unitary *cmat.Matrix
	old     *precompile.Entry
	target  *devreg.Target

	// Filled by the worker before done closes (which orders the writes
	// ahead of the lane's reads).
	done    chan struct{}
	outcome bgOutcome
	iters   int
	seeded  bool
}

// seed returns the entry the retraining warm-starts from.
func (it *bgItem) seed() *precompile.Entry {
	if it.old != nil {
		return it.old
	}
	seed := &precompile.Entry{Key: it.key, NumQubits: it.target.NumQubits, LatencyNs: it.target.LatencyNs}
	if it.ns.Seeds != nil {
		if sd, ok := it.ns.Seeds.Nearest(it.unitary, seed.NumQubits); ok {
			seed.Pulse, seed.LatencyNs = sd.Pulse, sd.LatencyNs
		}
	}
	return seed
}

// background runs one lane item on a worker and waits for its outcome.
// The idle gate refuses it (bgYielded) while request traffic holds the
// pool or once Close has begun.
func (p *Pool) background(it *bgItem) bgOutcome {
	select {
	case <-p.closing:
		return bgYielded
	default:
	}
	if p.busy() {
		return bgYielded
	}
	it.done = make(chan struct{})
	if p.enqueue(&task{bg: it}, false) != nil {
		return bgYielded
	}
	<-it.done
	return it.outcome
}

// retrain executes one lane item on a worker: yield if request traffic
// queued behind it, skip a key already covered, otherwise train it
// through the store's singleflight and pre-index the result under its
// known target (the store hook then skips its propagation).
func (p *Pool) retrain(it *bgItem) {
	if len(p.tasks) > 0 {
		return
	}
	ns := it.ns
	if ns.Store.Contains(it.key) {
		it.outcome = bgSkipped
		return
	}
	_, outcome, err := ns.Store.GetOrTrain(it.key, func() (*precompile.Entry, error) {
		seed := it.seed()
		it.seeded = seed.Pulse != nil
		e, terr := precompile.RetrainEntry(seed, it.unitary, ns.Comp.Options().Precompile)
		if terr != nil {
			return nil, terr
		}
		it.iters = e.Iterations
		if ns.Seeds != nil {
			ns.Seeds.InsertWithUnitary(e, it.unitary)
		}
		return e, nil
	})
	switch {
	case outcome == libstore.OutcomeTrained && err == nil:
		it.outcome = bgTrained
		if it.seeded {
			p.warmSeeded.Add(1)
		}
	case outcome == libstore.OutcomeTrained:
		it.outcome = bgFailed
	default:
		// Hit, or joined a concurrent request's training (whatever its
		// outcome): the racing request owns that work.
		it.outcome = bgSkipped
	}
}
