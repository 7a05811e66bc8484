package compilesvc

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/devreg"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/libstore"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

// Every group of these programs is single-qubit, so they train fast.
// pairProgram has two unique groups; oneProgram repeats the first alone,
// which makes the usage ledger predict the second as its co-occurring
// next key.
const (
	pairProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrz(0.4) q[0];\nh q[0];\nrz(1.1) q[1];\n"
	oneProgram  = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrz(0.4) q[0];\nh q[0];\n"
)

func testOpts() accqoc.Options {
	return accqoc.Options{
		Device: topology.Linear(3),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}
}

func newRegistry(t *testing.T, prefetch bool) *devreg.Registry {
	t.Helper()
	opts := testOpts()
	reg, err := devreg.New(devreg.Config{Base: opts, EnablePrefetch: prefetch},
		devreg.Profile{Name: "dev", Device: opts.Device, Ham: opts.Precompile.Ham},
		libstore.New(libstore.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func current(t *testing.T, reg *devreg.Registry) *devreg.Namespace {
	t.Helper()
	ns, err := reg.Current("")
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func mustParse(t *testing.T, src string) *circuit.Circuit {
	t.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustDo(t *testing.T, p *Pool, req *Request) *Result {
	t.Helper()
	res, err := p.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// blockWorker occupies one worker with a request whose start hook waits
// for the returned release func (then vetoes itself). With the only
// worker held, any idle token already sent is stale: it is dropped, so
// waitIdle sees the next one.
func blockWorker(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	started, rel := make(chan struct{}), make(chan struct{})
	rt := &reqTask{
		req:   &Request{},
		start: func() bool { close(started); <-rel; return false },
		done:  func(*Result, error) { t.Error("vetoed blocker answered") },
	}
	if err := p.enqueue(&task{batch: []*reqTask{rt}}, false); err != nil {
		t.Fatal(err)
	}
	<-started
	select {
	case <-p.idle:
	default:
	}
	return func() { close(rel) }
}

// vetoed is a queued request that never runs: it only fills a slot.
func vetoed() *task {
	return &task{batch: []*reqTask{{req: &Request{}, start: func() bool { return false }}}}
}

// waitIdle waits for the pool's idle signal: a worker finished a task
// and left the queue empty.
func waitIdle(p *Pool) { <-p.idle }

// queueRoll appends a roll to the lane without waking its loop, so the
// test drives every cycle itself through RunOnce.
func queueRoll(l *Lane, roll *devreg.Roll) {
	l.mu.Lock()
	l.rolls = append(l.rolls, roll)
	l.mu.Unlock()
}

// rollProcessed counts the roll's noted items.
func rollProcessed(roll *devreg.Roll) int {
	st := roll.Status()
	return st.Done + st.Skipped + st.Failed
}

// TestSyncBatchOfOneMatchesAsync pins the one request path: a
// synchronous request (a batch of one, enqueued directly) and an async
// submission of the same program answer identically, compile_millis
// aside — for the plain summary and for the scheduled circuit. Each arm
// trains cold on its own registry (GRAPE is seeded), so the training
// counters are compared too.
func TestSyncBatchOfOneMatchesAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	for _, circ := range []bool{false, true} {
		p := New(Config{Workers: 1})
		syncReg, asyncReg := newRegistry(t, false), newRegistry(t, false)
		prog := mustParse(t, pairProgram)

		got := mustDo(t, p, &Request{Prog: prog, NS: current(t, syncReg), Circuit: circ, Waveforms: circ})
		type answer struct {
			res *Result
			err error
		}
		ch := make(chan answer, 1)
		if err := p.Submit(&Request{Prog: prog, NS: current(t, asyncReg), Circuit: circ, Waveforms: circ},
			nil, func(r *Result, err error) { ch <- answer{r, err} }); err != nil {
			t.Fatal(err)
		}
		a := <-ch
		if a.err != nil {
			t.Fatal(a.err)
		}
		p.Close()

		want := a.res
		if circ {
			got.Circ.Compile.CompileMillis, want.Circ.Compile.CompileMillis = 0, 0
			if got.Circ.Compile.UncoveredUnique != 2 {
				t.Fatalf("sync circuit resolved %+v, want 2 cold groups", got.Circ.Compile)
			}
		} else {
			got.Resp.CompileMillis, want.Resp.CompileMillis = 0, 0
			if got.Resp.UncoveredUnique != 2 || got.Resp.TrainingIterations == 0 {
				t.Fatalf("sync response %+v, want 2 trained groups", got.Resp)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("circuit=%v: sync %+v differs from async %+v", circ, got, want)
		}
	}
}

// rollFixture warms a registry through the pool (two requests, so the
// ledger's last window predicts the pair's second key) and opens a
// calibration epoch whose roll plans both keys.
func rollFixture(t *testing.T, p *Pool, reg *devreg.Registry) *devreg.Roll {
	t.Helper()
	mustDo(t, p, &Request{Prog: mustParse(t, pairProgram), NS: current(t, reg)})
	mustDo(t, p, &Request{Prog: mustParse(t, oneProgram), NS: current(t, reg)})
	roll, err := reg.Calibrate("", devreg.CalibrationUpdate{DriftPct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Plan) != 2 {
		t.Fatalf("roll plans %d items, want 2", len(roll.Plan))
	}
	return roll
}

// TestLaneRollBeforePrefetch pins the lane's source order: while a roll
// has items, a cycle runs the roll and never consults the prefetch
// source; the first prefetch cycle comes after the roll finished, and
// finds its predicted key already re-covered by the roll.
func TestLaneRollBeforePrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	p := New(Config{Workers: 1})
	defer p.Close()
	reg := newRegistry(t, true)
	lane := p.Lane()
	lane.StartPrefetch(reg, time.Hour)
	roll := rollFixture(t, p, reg)
	queueRoll(lane, roll)

	if !lane.RunOnce() {
		t.Fatal("first cycle reports no roll work left")
	}
	if rollProcessed(roll) != 1 || lane.Stats().Predicted != 0 {
		t.Fatalf("after cycle 1: roll %+v, prefetch %+v", roll.Status(), lane.Stats())
	}
	if lane.RunOnce() {
		t.Fatal("roll work left after its last item")
	}
	select {
	case <-roll.Done():
	default:
		t.Fatal("exhausted roll not finished")
	}
	st := roll.Status()
	if st.Done != 2 || st.WarmSeeded != 2 || lane.Stats().Predicted != 0 {
		t.Fatalf("after cycle 2: roll %+v, prefetch %+v", st, lane.Stats())
	}

	lane.RunOnce()
	ps := lane.Stats()
	if ps.Predicted == 0 || ps.Trained != 0 {
		t.Fatalf("prefetch cycle after the roll: %+v, want predictions of keys the roll re-covered", ps)
	}
}

// TestLaneYieldedItems pins what happens to an item that yields: a roll
// item is offered again (the cursor did not move); a prefetch cycle on a
// busy pool is no attempt at all, while a prefetch item refused after
// the idle gate is counted abandoned. Both run once the pool is idle. It
// also pins the worker's pickup re-check.
func TestLaneYieldedItems(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	t.Run("roll", func(t *testing.T) {
		p := New(Config{Workers: 1})
		defer p.Close()
		reg := newRegistry(t, false)
		roll := rollFixture(t, p, reg)
		lane := p.Lane()
		queueRoll(lane, roll)
		first, _ := roll.Next()

		release := blockWorker(t, p)
		if !lane.RunOnce() {
			t.Fatal("yielded roll reports no work left")
		}
		if n := rollProcessed(roll); n != 0 {
			t.Fatalf("busy pool processed %d roll items", n)
		}
		if again, _ := roll.Next(); again != first {
			t.Fatalf("cursor moved past a yielded item: %q, then %q", first.Key, again.Key)
		}
		release()
		waitIdle(p)
		for lane.RunOnce() {
		}
		if st := roll.Status(); st.Done != 2 || st.Active {
			t.Fatalf("roll after the pool went idle: %+v", st)
		}
	})
	t.Run("prefetch", func(t *testing.T) {
		p := New(Config{Workers: 1})
		defer p.Close()
		reg := newRegistry(t, true)
		lane := p.Lane()
		lane.StartPrefetch(reg, time.Hour)
		// No roll re-covers the new epoch: the predicted key is a miss.
		rollFixture(t, p, reg).Finish()
		ns := current(t, reg)

		release := blockWorker(t, p)
		lane.RunOnce()
		if ps := lane.Stats(); ps != (PrefetchStats{}) {
			t.Fatalf("busy pool: prefetch %+v, want no attempt counted", ps)
		}

		// Pickup re-check: an item that finds a request queued behind it
		// yields untried.
		pred := ns.Usage.Predictor().Predict(ns.Usage.LastWindow(), prefetchDepth)
		if len(pred) == 0 {
			t.Fatal("no prediction to prefetch")
		}
		tgt, ok := ns.Targets.Get(pred[0].Key)
		if !ok {
			t.Fatalf("no retained target for %q", pred[0].Key)
		}
		if err := p.enqueue(vetoed(), false); err != nil {
			t.Fatal(err)
		}
		it := &bgItem{ns: ns, key: tgt.Key, unitary: tgt.Unitary, target: tgt}
		p.retrain(it)
		if it.outcome != bgYielded || ns.Store.Contains(tgt.Key) {
			t.Fatalf("pickup with a queued request: outcome %d, covered %v", it.outcome, ns.Store.Contains(tgt.Key))
		}

		// An item that passes the idle gate and is then refused — here by
		// a closing pool over the same registry — is counted abandoned.
		closing := New(Config{Workers: 1})
		closing.Close()
		closing.Lane().StartPrefetch(reg, time.Hour)
		closing.Lane().RunOnce()
		if ps := closing.Lane().Stats(); ps.Abandoned != 1 || ps.Trained != 0 || ns.Store.Contains(tgt.Key) {
			t.Fatalf("closing pool: prefetch %+v, want 1 abandoned", ps)
		}

		release()
		waitIdle(p)
		lane.RunOnce()
		if ps := lane.Stats(); ps.Abandoned != 0 || ps.Trained != 1 || !ns.Store.Contains(tgt.Key) {
			t.Fatalf("idle pool: prefetch %+v, want the predicted key trained", ps)
		}
	})
}

// compilesvcGoroutines lists live goroutines running this package's
// workers, lane loop or flushes.
func compilesvcGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "compilesvc.(*Pool).worker") ||
			strings.Contains(g, "compilesvc.(*Lane).loop") ||
			strings.Contains(g, "compilesvc.(*batcher).flush") {
			out = append(out, g)
		}
	}
	return out
}

// TestCloseWithQueuedLaneWork shuts the pool down while the lane holds an
// open roll it cannot run (the pool is busy): Close finishes the roll
// untried and leaves no goroutine of the pool behind.
func TestCloseWithQueuedLaneWork(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	p := New(Config{Workers: 1})
	reg := newRegistry(t, false)
	roll := rollFixture(t, p, reg)

	release := blockWorker(t, p)
	p.Roll(roll)
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-roll.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not finish the queued roll")
	}
	if n := rollProcessed(roll); n != 0 {
		t.Fatalf("roll processed %d items on a busy pool", n)
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	// The handover after Close finishes the roll at once.
	late, err := reg.Calibrate("", devreg.CalibrationUpdate{DriftPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Roll(late)
	<-late.Done()

	for i := 0; len(compilesvcGoroutines()) > 0; i++ {
		if i == 10000 {
			t.Fatalf("goroutines left after Close:\n%s", strings.Join(compilesvcGoroutines(), "\n\n"))
		}
		runtime.Gosched()
	}
}

// spinUntil yields the processor until cond holds, failing the test after
// 30s.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestCloseStopsRollInProgress shuts an idle pool down while its lane is
// inside a roll cycle: Close returns after at most the item in hand
// instead of re-training the rest of the plan, and finishes the roll.
func TestCloseStopsRollInProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	p := New(Config{Workers: 1})
	reg := newRegistry(t, false)
	roll := rollFixture(t, p, reg)
	lane := p.Lane()

	// Hold the cycle lock so the loop parks inside its first roll cycle.
	lane.cycle.Lock()
	p.Roll(roll)
	spinUntil(t, "the lane loop to enter a cycle", func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "compilesvc.(*Lane).RunOnce")
	})
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	<-p.closing
	lane.cycle.Unlock()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatalf("Close did not return; roll %+v", roll.Status())
	}
	if n := rollProcessed(roll); n > 1 {
		t.Fatalf("Close waited for %d roll items, want at most 1", n)
	}
	select {
	case <-roll.Done():
	default:
		t.Fatal("Close left the roll open")
	}
}

// TestFlushBlocksOnFullQueue pins the batcher's enqueue: a flushed batch
// that meets a full queue blocks until a slot frees and then runs, and
// Close during the block fails its jobs with ErrClosed.
func TestFlushBlocksOnFullQueue(t *testing.T) {
	setup := func(t *testing.T) (p *Pool, release func(), started chan struct{}, answered chan error, flushed chan struct{}) {
		p = New(Config{Workers: 1, QueueDepth: 1, BatchWindow: time.Hour})
		release = blockWorker(t, p)
		if err := p.enqueue(vetoed(), false); err != nil {
			t.Fatal(err)
		}
		if err := p.enqueue(vetoed(), false); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("second filler: %v, want ErrQueueFull", err)
		}
		ns := &devreg.Namespace{}
		started, answered = make(chan struct{}), make(chan error, 1)
		if err := p.Submit(&Request{NS: ns},
			func() bool { close(started); return false },
			func(_ *Result, err error) { answered <- err }); err != nil {
			t.Fatal(err)
		}
		p.batcher.mu.Lock()
		g := p.batcher.groups[ns]
		p.batcher.mu.Unlock()
		flushed = make(chan struct{})
		go func() {
			p.batcher.flush(ns, g)
			close(flushed)
		}()
		// A blocked flush holds the enqueue read lock.
		for p.closeMu.TryLock() {
			p.closeMu.Unlock()
			runtime.Gosched()
		}
		select {
		case <-flushed:
			t.Fatal("flush returned with the queue full")
		default:
		}
		return p, release, started, answered, flushed
	}

	t.Run("slot frees", func(t *testing.T) {
		p, release, started, answered, flushed := setup(t)
		defer p.Close()
		release()
		<-flushed
		<-started // the job reached a worker (and vetoed itself)
		select {
		case err := <-answered:
			t.Fatalf("vetoed job answered: %v", err)
		default:
		}
	})
	t.Run("close", func(t *testing.T) {
		p, release, started, answered, flushed := setup(t)
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		if err := <-answered; !errors.Is(err, ErrClosed) {
			t.Fatalf("job answered %v, want ErrClosed", err)
		}
		<-flushed
		release()
		<-closed
		select {
		case <-started:
			t.Fatal("job failed by Close also ran")
		default:
		}
	})
}
