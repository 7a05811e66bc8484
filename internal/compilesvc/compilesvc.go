// Package compilesvc is the training tier of the serving stack: the
// plan/execute compilation core (coverage planning, MST-ordered
// warm-started training through the namespace store's singleflight,
// Algorithm 3 schedule assembly) behind its own bounded worker pool.
//
// Every request runs one pipeline. A synchronous request (Do) is a batch
// of one, enqueued directly; asynchronous requests (Submit) against the
// same namespace are batched within a short window. Either way a worker
// plans each request (front end + canonical keys), resolves the union of
// the batch's unique groups in one resolveGroups pass, rebuilds each
// request's counters from the per-key outcome tally, and finishes its
// latency or schedule tail.
//
// Off the request path, the pool's background lane re-trains entries at
// strictly lower priority than request traffic: the items of calibration
// rolls handed over by Roll first, then (when enabled) the usage ledger's
// predicted misses. The routing tier (internal/server) speaks only the
// CompileService interface; queue depth, in-flight work and the
// warm-seeding counter are read back through it, so the HTTP layer never
// touches pool internals — the seam a later multi-process split
// (consistent-hashed training nodes) needs.
package compilesvc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accqoc/internal/devreg"
)

// Queue admission errors. The routing tier maps both to 503 (with a
// Retry-After hint); their messages are part of the served wire format.
var (
	// ErrQueueFull reports a full compile queue.
	ErrQueueFull = errors.New("compilation queue full")
	// ErrClosed reports a service that is shutting down (or has shut
	// down); it also answers tasks swept out of the queue by Close.
	ErrClosed = errors.New("server shutting down")
)

// CompileService is the seam between the routing tier and the training
// tier. Implementations must be safe for concurrent use from handler
// goroutines and shutdown paths.
type CompileService interface {
	// Do runs one request synchronously: enqueue, wait for a worker, and
	// return the finished result. It fails fast with ErrQueueFull or
	// ErrClosed before any work happens.
	Do(req *Request) (*Result, error)

	// Submit enqueues one request asynchronously. Concurrent submissions
	// against the same namespace are batched within the configured window
	// and resolved in one shared resolveGroups pass. At worker pickup,
	// start is invoked first: returning false vetoes the request (it was
	// canceled) and NO other callback runs — cleanup on veto belongs to
	// start. Otherwise done is invoked exactly once with the result or
	// error (ErrClosed when the service shut down before the work ran).
	// Submit itself returns ErrClosed when the service is already
	// closing; then neither callback runs.
	Submit(req *Request, start func() bool, done func(*Result, error)) error

	// Roll hands an opened calibration roll to the background lane, which
	// re-trains its plan hottest-first whenever the pool is idle and calls
	// roll.Finish when the plan is exhausted, superseded, or the service
	// closes.
	Roll(roll *devreg.Roll)

	// QueueLen and QueueCap report the compile queue's depth and bound;
	// Workers the pool size; InFlight the tasks currently executing.
	QueueLen() int
	QueueCap() int
	Workers() int
	InFlight() int

	// WarmSeeded totals trainings (request and background paths alike)
	// that started from a similarity-admitted seed.
	WarmSeeded() int64

	// Close stops the background lane, drains queued work, answers
	// stragglers with ErrClosed, and stops the workers. Pending async
	// batches that never reached a worker fail their done callbacks with
	// ErrClosed.
	Close()
}

// Config assembles a Pool.
type Config struct {
	// Workers bounds concurrent compilations. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending tasks beyond the running ones; a full
	// queue answers ErrQueueFull. Default 64.
	QueueDepth int
	// BatchWindow is how long an async submission waits for same-
	// namespace company before its batch is flushed to the pool.
	// Default 2ms.
	BatchWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	return c
}

// task is one unit of worker-pool work: a batch of requests (a
// synchronous request is a batch of one) or one background-lane item.
type task struct {
	batch []*reqTask
	bg    *bgItem
}

// Pool is the worker-pool CompileService.
type Pool struct {
	cfg   Config
	tasks chan *task
	// closing is closed when Close begins: it stops the lane and
	// interrupts flushes blocked on a full queue. quit is closed once no
	// new task can enter the queue; workers then drain it and exit.
	closing chan struct{}
	quit    chan struct{}
	// idle receives a token whenever a worker finishes a task and leaves
	// the queue empty — the lane's wake-up while the pool is busy.
	idle chan struct{}
	wg   sync.WaitGroup

	batcher *batcher
	lane    *Lane

	inFlight   atomic.Int64
	warmSeeded atomic.Int64

	// closeMu orders enqueues against Close: an enqueue holds the read
	// lock, so once Close holds the write lock and sets closed, every
	// queued task predates the quit signal and the worker drain loop (or
	// Close's final sweep) is guaranteed to answer it.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

var _ CompileService = (*Pool)(nil)

// New builds a pool and starts its workers and its background lane.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:     cfg,
		tasks:   make(chan *task, cfg.QueueDepth),
		closing: make(chan struct{}),
		quit:    make(chan struct{}),
		idle:    make(chan struct{}, 1),
	}
	p.batcher = newBatcher(p, cfg.BatchWindow)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.lane = newLane(p)
	return p
}

// enqueue submits a task unless the pool is closed. A full queue answers
// ErrQueueFull, or, with wait set (work already accepted, such as a
// flushed async batch), blocks until a slot frees or Close begins.
func (p *Pool) enqueue(t *task, wait bool) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if !wait {
		select {
		case p.tasks <- t:
			return nil
		default:
			return ErrQueueFull
		}
	}
	select {
	case p.tasks <- t:
		return nil
	case <-p.closing:
		return ErrClosed
	}
}

// busy reports request traffic the background lane must yield to: a
// queued task, or no free worker.
func (p *Pool) busy() bool {
	return p.QueueLen() > 0 || p.InFlight() >= p.Workers()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	run := func(t *task) {
		p.inFlight.Add(1)
		var answers []answer
		if t.bg != nil {
			p.retrain(t.bg)
		} else {
			for _, rt := range t.batch {
				rt.queueSpan.End()
			}
			answers = p.runBatch(t.batch)
		}
		// Leave the in-flight count (and signal an idle pool) before
		// answering, so a caller that follows up with a background cycle
		// never finds its own finished task still counted as traffic.
		p.inFlight.Add(-1)
		if len(p.tasks) == 0 {
			select {
			case p.idle <- struct{}{}:
			default:
			}
		}
		if t.bg != nil {
			close(t.bg.done)
		}
		for _, a := range answers {
			a.rt.deliver(a.res, a.err)
		}
	}
	for {
		select {
		case t := <-p.tasks:
			run(t)
		case <-p.quit:
			// Drain whatever is already queued so no caller hangs.
			for {
				select {
				case t := <-p.tasks:
					run(t)
				default:
					return
				}
			}
		}
	}
}

// Do runs one request synchronously through the pool as a batch of one.
func (p *Pool) Do(req *Request) (*Result, error) {
	// The task, its request and its one-element batch share one
	// allocation: this is the warm path of every sync request.
	call := &struct {
		task
		rt  reqTask
		one [1]*reqTask
	}{}
	reply := make(chan answer, 1)
	call.rt = reqTask{req: req, reply: reply, queueSpan: req.Trace.StartSpan("queue")}
	call.one[0] = &call.rt
	call.batch = call.one[:]
	if err := p.enqueue(&call.task, false); err != nil {
		// The queue span is dropped unended: rejected before queuing.
		return nil, err
	}
	// Wait for the worker even if the caller's client goes away: the
	// training is already paid for and warms the shared library.
	a := <-reply
	return a.res, a.err
}

// Submit enqueues one request for asynchronous, batched execution.
func (p *Pool) Submit(req *Request, start func() bool, done func(*Result, error)) error {
	return p.batcher.add(req, start, done)
}

// Roll hands an opened calibration roll to the background lane.
func (p *Pool) Roll(roll *devreg.Roll) { p.lane.offer(roll) }

// Lane exposes the background lane (prefetch enablement, its counters,
// and its deterministic single-cycle entry point).
func (p *Pool) Lane() *Lane { return p.lane }

// QueueLen reports tasks waiting in the queue (not yet picked up).
func (p *Pool) QueueLen() int { return len(p.tasks) }

// QueueCap reports the queue bound.
func (p *Pool) QueueCap() int { return p.cfg.QueueDepth }

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.cfg.Workers }

// InFlight reports tasks currently executing on a worker.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// WarmSeeded totals seed-admitted trainings across the pool's lifetime.
func (p *Pool) WarmSeeded() int64 { return p.warmSeeded.Load() }

// Close stops the pool: the lane first (its items ride the request queue,
// so it must be quiet before the final sweep; open rolls are finished),
// then the queue drains. Unflushed async batches and tasks swept out of
// the queue are answered with ErrClosed. Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.closing)
		p.lane.stop()
		p.closeMu.Lock()
		p.closed = true
		p.closeMu.Unlock()
		// Fail async submissions still waiting in the batcher. Flushed
		// batches already in the channel are drained (and executed) by
		// the workers below.
		p.batcher.close()
		close(p.quit)
		p.wg.Wait()
		// Fail anything that slipped into the queue between the workers'
		// drain sweep and their exit (possible only for tasks enqueued
		// before closed was set, so this sweep is the last).
		for {
			select {
			case t := <-p.tasks:
				t.fail(ErrClosed)
			default:
				return
			}
		}
	})
}

// fail answers a swept task with err, whatever its kind.
func (t *task) fail(err error) {
	if t.bg != nil {
		close(t.bg.done) // outcome stays bgYielded
		return
	}
	for _, rt := range t.batch {
		rt.fail(err)
	}
}
